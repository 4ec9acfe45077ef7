(* Each set is a segment of [lines].

   LRU (the default and the seed engine's policy) keeps the ways
   ordered MRU-first with -1 = empty: promotion is a shift, which
   beats pointer chasing at the associativities we model (<= 24), and
   the recency order needs no state beyond the array itself.  That
   code path does the seed's array operations in the seed's order —
   the LRU-as-policy bit-identity differential in the test suite holds
   by construction.

   Every other policy keeps [lines] in PHYSICAL way order and packs
   its per-set replacement state into one int of [state] (tree bits,
   2-bit ages, used bits, a fill pointer, or an RNG word), mediated by
   the POLICY signature below: [init] seeds a set's state, [on_hit]
   and [on_fill] update it, [victim] picks the way to evict when the
   set is full.  Empty ways are filled lowest-index-first before
   [victim] is consulted, so a policy never sees a non-full set. *)

module Policy = Ctam_arch.Policy

module type POLICY = sig
  val name : string

  (** Packed state of one freshly-cleared set. *)
  val init : assoc:int -> set:int -> int

  (** State update on a hit at [way]. *)
  val on_hit : assoc:int -> state:int -> way:int -> int

  (** State update after filling [way] (an empty way or the victim). *)
  val on_fill : assoc:int -> state:int -> way:int -> int

  (** Way to evict from a full set, plus the updated state (the RNG
      policy advances its generator here).  [on_fill] still runs for
      the chosen way afterwards. *)
  val victim : assoc:int -> state:int -> int * int
end

(* --- policy implementations ------------------------------------------ *)

(* Round-robin fill order; hits do not refresh.  State = next victim
   way.  [on_fill] rather than [victim] advances the pointer so that
   refills after an invalidation (which are served from the empty-way
   scan) keep the pointer moving too. *)
module Fifo : POLICY = struct
  let name = "fifo"
  let init ~assoc:_ ~set:_ = 0
  let on_hit ~assoc:_ ~state ~way:_ = state
  let on_fill ~assoc ~state:_ ~way = (way + 1) mod assoc
  let victim ~assoc:_ ~state = (state, state)
end

(* Tree-PLRU.  The state packs the direction bits of a binary tree
   over ceil-pow2(assoc) leaves, heap-indexed from 1 (bit i-1 of the
   state is node i): bit 0 = the LRU side is the left subtree, 1 = the
   right.  A touch points every node on the way's path AWAY from it;
   the victim walk follows the bits, detouring left whenever the
   indicated right subtree holds no valid way (non-power-of-two
   associativity).  assoc <= 32 keeps the tree within one int. *)
module Plru : POLICY = struct
  let name = "plru"

  let ceil_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let init ~assoc:_ ~set:_ = 0

  let touch ~assoc state way =
    let state = ref state in
    let i = ref 1 and lo = ref 0 and span = ref (ceil_pow2 assoc) in
    while !span > 1 do
      let half = !span / 2 in
      if way < !lo + half then begin
        state := !state lor (1 lsl (!i - 1));
        i := 2 * !i
      end
      else begin
        state := !state land lnot (1 lsl (!i - 1));
        i := (2 * !i) + 1;
        lo := !lo + half
      end;
      span := half
    done;
    !state

  let on_hit ~assoc ~state ~way = touch ~assoc state way
  let on_fill ~assoc ~state ~way = touch ~assoc state way

  let victim ~assoc ~state =
    let i = ref 1 and lo = ref 0 and span = ref (ceil_pow2 assoc) in
    while !span > 1 do
      let half = !span / 2 in
      let bit = (state lsr (!i - 1)) land 1 in
      (* Go right only when the right subtree contains a valid way. *)
      if bit = 1 && !lo + half < assoc then begin
        i := (2 * !i) + 1;
        lo := !lo + half
      end
      else i := 2 * !i;
      span := half
    done;
    (!lo, state)
end

(* Quad-age LRU (the QLRU family modelled after recent Intel L3s): a
   2-bit age per way, hit resets to 0, fill inserts at 1, eviction
   takes the lowest-index way of age 3, normalizing all ages up first
   so one always exists.  assoc <= 31 keeps the ages within one int. *)
module Qlru : POLICY = struct
  let name = "qlru"
  let age state way = (state lsr (2 * way)) land 3

  let set_age state way a =
    state land lnot (3 lsl (2 * way)) lor (a lsl (2 * way))

  let init ~assoc ~set:_ =
    (* All ways at age 3: anything is evictable until filled. *)
    let rec go st w = if w < 0 then st else go (set_age st w 3) (w - 1) in
    go 0 (assoc - 1)

  let on_hit ~assoc:_ ~state ~way = set_age state way 0
  let on_fill ~assoc:_ ~state ~way = set_age state way 1

  let victim ~assoc ~state =
    let m = ref 0 in
    for w = 0 to assoc - 1 do
      if age state w > !m then m := age state w
    done;
    let state = ref state in
    if !m < 3 then begin
      let d = 3 - !m in
      for w = 0 to assoc - 1 do
        state := set_age !state w (age !state w + d)
      done
    end;
    let v = ref 0 in
    while age !state !v <> 3 do
      incr v
    done;
    (!v, !state)
end

(* Used-bit NRU ("MRU" in the cachetrace taxonomy): one bit per way,
   set on every touch; when setting the last clear bit, every OTHER
   bit is cleared, so a victim (first way with a clear bit) always
   exists for assoc >= 2. *)
module Mru : POLICY = struct
  let name = "mru"
  let init ~assoc:_ ~set:_ = 0

  let touch ~assoc state way =
    let full = (1 lsl assoc) - 1 in
    let st = state lor (1 lsl way) in
    if st = full then 1 lsl way else st

  let on_hit ~assoc ~state ~way = touch ~assoc state way
  let on_fill ~assoc ~state ~way = touch ~assoc state way

  let victim ~assoc ~state =
    let v = ref 0 in
    while !v < assoc - 1 && (state lsr !v) land 1 = 1 do
      incr v
    done;
    (!v, state)
end

(* Seeded xorshift victim selection.  The per-set state is the RNG
   word, derived from the seed and the set index, so runs are
   deterministic for a given seed and two seeds give decorrelated
   victim sequences. *)
module type SEED = sig
  val seed : int
end

module Random_pol (S : SEED) : POLICY = struct
  let name = Printf.sprintf "random:%d" S.seed
  let mask = (1 lsl 62) - 1

  let init ~assoc:_ ~set =
    let s = ((S.seed * 0x9e3779b1) lxor (set * 0x85ebca6b)) land mask in
    if s = 0 then 0x2545f491 else s

  let on_hit ~assoc:_ ~state ~way:_ = state
  let on_fill ~assoc:_ ~state ~way:_ = state

  let victim ~assoc ~state =
    let s = state lxor (state lsl 13) land mask in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) land mask in
    let s = if s = 0 then 0x2545f491 else s in
    (s mod assoc, s)
end

let random_policy ~seed : (module POLICY) =
  (module Random_pol (struct
    let seed = seed
  end))

(* Closure record over a POLICY module: one dynamic dispatch per state
   update instead of a functor instantiation per cache. *)
type ops = {
  o_init : assoc:int -> set:int -> int;
  o_hit : assoc:int -> state:int -> way:int -> int;
  o_fill : assoc:int -> state:int -> way:int -> int;
  o_victim : assoc:int -> state:int -> int * int;
}

let ops_of (module P : POLICY) =
  { o_init = P.init; o_hit = P.on_hit; o_fill = P.on_fill; o_victim = P.victim }

let policy_module : Policy.t -> (module POLICY) option = function
  | Policy.Lru -> None
  | Policy.Fifo -> Some (module Fifo)
  | Policy.Plru -> Some (module Plru)
  | Policy.Qlru -> Some (module Qlru)
  | Policy.Mru -> Some (module Mru)
  | Policy.Random seed -> Some (random_policy ~seed)

(* --- the cache ------------------------------------------------------- *)

type t = {
  sets : int;
  assoc : int;
  set_mask : int;  (* sets - 1 when sets is a power of two, -1 otherwise *)
  lines : int array;
  policy : Policy.t;
  ops : ops option;  (* None = the LRU fast path below *)
  state : int array;  (* per-set packed policy state; [||] for LRU *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(policy = Policy.Lru) ~sets ~assoc () =
  if sets <= 0 || assoc <= 0 then invalid_arg "Setassoc.create";
  (match policy with
  | Policy.Plru when assoc > 32 ->
      invalid_arg "Setassoc.create: plru supports at most 32 ways"
  | Policy.Qlru when assoc > 31 ->
      invalid_arg "Setassoc.create: qlru supports at most 31 ways"
  | (Policy.Mru | Policy.Fifo) when assoc > 62 ->
      invalid_arg "Setassoc.create: policy state needs assoc <= 62"
  | _ -> ());
  let ops = Option.map ops_of (policy_module policy) in
  let state =
    match ops with
    | None -> [||]
    | Some o -> Array.init sets (fun set -> o.o_init ~assoc ~set)
  in
  {
    sets;
    assoc;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    lines = Array.make (sets * assoc) (-1);
    policy;
    ops;
    state;
    hits = 0;
    misses = 0;
  }

let sets t = t.sets
let assoc t = t.assoc
let policy t = t.policy
let capacity_lines t = t.sets * t.assoc

let set_of_line t line =
  (* Lines are non-negative, so masking matches mod exactly. *)
  if t.set_mask >= 0 then line land t.set_mask else line mod t.sets

let set_base t line = set_of_line t line * t.assoc

(* The tag scans are loops, not local recursive functions: a local
   [let rec] that reads [t], [base] and [line] is a closure allocated on
   every call, and each coherence sweep the write filter cannot skip
   scans one set in every cache off the writer's path (17 on
   Dunnington). *)
let find_way t base line =
  let w = ref 0 in
  while !w < t.assoc && t.lines.(base + !w) <> line do
    incr w
  done;
  if !w < t.assoc then !w else -1

let promote t base w =
  (* LRU: move way [w] to MRU position, shifting the younger ways down. *)
  let line = t.lines.(base + w) in
  for k = w downto 1 do
    t.lines.(base + k) <- t.lines.(base + k - 1)
  done;
  t.lines.(base) <- line

let access t line =
  match t.ops with
  | None ->
      let base = set_base t line in
      let w = find_way t base line in
      if w >= 0 then begin
        t.hits <- t.hits + 1;
        promote t base w;
        true
      end
      else begin
        t.misses <- t.misses + 1;
        false
      end
  | Some ops ->
      let set = set_of_line t line in
      let base = set * t.assoc in
      let w = find_way t base line in
      if w >= 0 then begin
        t.hits <- t.hits + 1;
        t.state.(set) <- ops.o_hit ~assoc:t.assoc ~state:t.state.(set) ~way:w;
        true
      end
      else begin
        t.misses <- t.misses + 1;
        false
      end

let first_empty t base = find_way t base (-1)

let fill t line =
  match t.ops with
  | None ->
      (* LRU: the last way is the victim (or empty); shift the others
         down and insert as MRU. *)
      let base = set_base t line in
      let victim = t.lines.(base + t.assoc - 1) in
      for k = t.assoc - 1 downto 1 do
        t.lines.(base + k) <- t.lines.(base + k - 1)
      done;
      t.lines.(base) <- line;
      victim
  | Some ops ->
      let set = set_of_line t line in
      let base = set * t.assoc in
      let e = first_empty t base in
      if e >= 0 then begin
        t.lines.(base + e) <- line;
        t.state.(set) <- ops.o_fill ~assoc:t.assoc ~state:t.state.(set) ~way:e;
        -1
      end
      else begin
        let vw, st = ops.o_victim ~assoc:t.assoc ~state:t.state.(set) in
        let victim = t.lines.(base + vw) in
        t.lines.(base + vw) <- line;
        t.state.(set) <- ops.o_fill ~assoc:t.assoc ~state:st ~way:vw;
        victim
      end

let insert t line =
  let set = set_of_line t line in
  let base = set * t.assoc in
  let w = find_way t base line in
  if w >= 0 then begin
    (match t.ops with
    | None -> promote t base w
    | Some ops ->
        t.state.(set) <- ops.o_hit ~assoc:t.assoc ~state:t.state.(set) ~way:w);
    None
  end
  else
    let victim = fill t line in
    if victim = -1 then None else Some victim

let contains t line = find_way t (set_base t line) line >= 0

let invalidate t line =
  let base = set_base t line in
  let w = find_way t base line in
  if w < 0 then false
  else begin
    (match t.ops with
    | None ->
        (* LRU compacts: shift older ways up, free the last slot. *)
        for k = w to t.assoc - 2 do
          t.lines.(base + k) <- t.lines.(base + k + 1)
        done;
        t.lines.(base + t.assoc - 1) <- -1
    | Some _ ->
        (* Physical-order policies just punch a hole; the policy state
           is left alone and the empty-way scan refills it. *)
        t.lines.(base + w) <- -1);
    true
  end

let hits t = t.hits
let misses t = t.misses
let accesses t = t.hits + t.misses

let clear t =
  Array.fill t.lines 0 (Array.length t.lines) (-1);
  (match t.ops with
  | None -> ()
  | Some ops ->
      for set = 0 to t.sets - 1 do
        t.state.(set) <- ops.o_init ~assoc:t.assoc ~set
      done);
  t.hits <- 0;
  t.misses <- 0

(* Snapshots must capture the policy state too (the phase memo
   restores both), so non-LRU images append the per-set state words
   after the way array; LRU images stay the bare way array the seed
   produced. *)
let snapshot_lines t =
  if t.state = [||] then Array.copy t.lines
  else Array.append t.lines t.state

let restore_lines t lines =
  let nl = Array.length t.lines and ns = Array.length t.state in
  if Array.length lines <> nl + ns then
    invalid_arg "Setassoc.restore_lines: geometry mismatch";
  Array.blit lines 0 t.lines 0 nl;
  if ns > 0 then Array.blit lines nl t.state 0 ns

let add_counts t ~hits ~misses =
  t.hits <- t.hits + hits;
  t.misses <- t.misses + misses

let fold_lines f acc t =
  let acc = Array.fold_left f acc t.lines in
  Array.fold_left f acc t.state

let resident t =
  Array.to_list t.lines |> List.filter (fun l -> l >= 0)

let pp ppf t =
  Fmt.pf ppf "cache(%d sets x %d ways%s, %d hits / %d misses)" t.sets t.assoc
    (if Policy.equal t.policy Policy.Lru then ""
     else ", " ^ Policy.to_string t.policy)
    t.hits t.misses
