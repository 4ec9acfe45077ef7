(** In-process per-phase memoization for the simulation engine.

    The engine starts every phase with uniform per-core clocks (zero
    initially, [tmax + barrier_cost] after each barrier), so a phase's
    statistic deltas and exit cache state are a pure function of
    (entry cache contents, access streams, hierarchy configuration).
    {!Engine.run_streams} hashes that tuple and, on a table hit,
    replays the recorded deltas and restores the recorded exit state
    instead of re-simulating — byte-identical results, no per-access
    work.  Tuning sweeps are the intended consumer: every
    candidate mapping shares the serial nests and many share whole
    schedules.

    One table may be shared across domains (all operations lock); a
    search fanned out through [Parallel.map] hits entries recorded by
    sibling domains.  Lookups and replays are reported through the
    telemetry registry as [ctam_memo_hits_total] /
    [ctam_memo_misses_total] / [ctam_memo_stores_total] /
    [ctam_memo_replayed_accesses_total]. *)

type t

type entry = {
  clock_delta : int array;       (** per-core clock advance *)
  busy_delta : int array;
  exit_lines : int array array;  (** {!Hierarchy.snapshot} at phase exit *)
  hits_delta : int array;        (** per cache instance *)
  misses_delta : int array;
  mem_delta : int;
  accesses : int;                (** accesses the phase issued *)
  check : int;                   (** secondary hash of the key tuple *)
}

val create : unit -> t

(** [find t ~key ~check] returns the entry stored under the primary
    hash [key] when its secondary hash matches [check]; a primary-hash
    collision with a different [check] is a miss (never a wrong
    replay). *)
val find : t -> key:int -> check:int -> entry option

(** [store t ~key entry] records a phase outcome.  First writer wins
    when domains race on the same key. *)
val store : t -> key:int -> entry -> unit

val hits : t -> int
val misses : t -> int

(** Number of distinct phases recorded. *)
val size : t -> int

(** {2 Hashing}

    Word-at-a-time FNV-1a over native 63-bit ints, as a pair of
    independently seeded streams (primary indexes the table, secondary
    is the collision check — the {!Ctam_tune.Cache} key discipline). *)

val seed : int * int
val mix : int * int -> int -> int * int
val mix_array : int * int -> int array -> int * int
