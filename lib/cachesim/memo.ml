(* Per-phase memoization table for the engine (PR 7).

   A phase's outcome is a pure function of (entry cache contents,
   per-core access streams, hierarchy configuration):
   the engine only ever starts a phase with uniform per-core clocks
   (zero at the start of a run, [tmax + barrier_cost] for every core
   after each barrier), so the event interleaving inside the phase —
   and therefore every statistic delta and the exit cache state — is
   translation-invariant in the absolute clock.  The engine hashes that
   tuple, and on a match replays the recorded per-core clock/busy
   deltas, per-instance hit/miss deltas, memory-access delta and exit
   cache contents instead of re-simulating.  Replay restores the exact
   exit state, so a memoized run is byte-identical to an unmemoized
   one; tuning sweeps, which re-evaluate near-identical mappings
   constantly (every mapping shares the serial nests, many share whole
   schedules), are the intended consumer.

   Keys are word-at-a-time FNV-1a hashes over the tuple above.  Like
   [Tune.Cache], a primary hash indexes the table and an independent
   secondary hash guards against collisions: a primary match with a
   different check hash is treated as a miss (never a wrong replay).
   The table is in-process only and shared across domains behind a
   mutex — [Parallel.map]-driven searches hit entries recorded by
   sibling domains. *)

module Tel = Ctam_telemetry

(* FNV-1a folded a word at a time over OCaml's native 63-bit integers
   (the multiply wraps mod 2^63).  The two seeds start from different
   bases and the second stream rotates before mixing, so the pair
   behaves as independent hashes. *)
let prime = 0x100000001b3
let seed : int * int = (0xcbf29ce4, 0x84222325)

let mix (h1, h2) v =
  let r2 = (h2 lsl 7) lor (h2 lsr 55) in
  ((h1 lxor v) * prime, (r2 lxor (v + 0x9e3779b9)) * prime)

let mix_array h a = Array.fold_left mix h a

type entry = {
  clock_delta : int array;       (* per-core clock advance over the phase *)
  busy_delta : int array;
  exit_lines : int array array;  (* Hierarchy.snapshot at phase exit *)
  hits_delta : int array;        (* per cache instance *)
  misses_delta : int array;
  mem_delta : int;
  accesses : int;                (* accesses issued by the phase *)
  check : int;                   (* secondary hash of the key tuple *)
}

type t = {
  table : (int, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

let tel_hits =
  Tel.Metrics.Counter.v ~help:"Phase-memo lookups that replayed a cached phase"
    "ctam_memo_hits_total"

let tel_misses =
  Tel.Metrics.Counter.v ~help:"Phase-memo lookups that fell through to simulation"
    "ctam_memo_misses_total"

let tel_stores =
  Tel.Metrics.Counter.v ~help:"Phase outcomes recorded in the memo table"
    "ctam_memo_stores_total"

let tel_replayed =
  Tel.Metrics.Counter.v
    ~help:"Accesses accounted by memo replay instead of simulation"
    "ctam_memo_replayed_accesses_total"

let create () =
  { table = Hashtbl.create 64; lock = Mutex.create (); hits = 0; misses = 0 }

let find t ~key ~check =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some e when e.check = check ->
        t.hits <- t.hits + 1;
        Some e
    | _ ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.lock;
  if Tel.Metrics.enabled () then begin
    match r with
    | Some e ->
        Tel.Metrics.Counter.inc (Tel.Metrics.Counter.series tel_hits []);
        Tel.Metrics.Counter.inc ~by:e.accesses
          (Tel.Metrics.Counter.series tel_replayed [])
    | None -> Tel.Metrics.Counter.inc (Tel.Metrics.Counter.series tel_misses [])
  end;
  r

let store t ~key entry =
  Mutex.lock t.lock;
  (* First writer wins: a racing domain recorded the same phase. *)
  if not (Hashtbl.mem t.table key) then Hashtbl.replace t.table key entry;
  Mutex.unlock t.lock;
  if Tel.Metrics.enabled () then
    Tel.Metrics.Counter.inc (Tel.Metrics.Counter.series tel_stores [])

let hits t =
  Mutex.lock t.lock;
  let h = t.hits in
  Mutex.unlock t.lock;
  h

let misses t =
  Mutex.lock t.lock;
  let m = t.misses in
  Mutex.unlock t.lock;
  m

let size t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n
