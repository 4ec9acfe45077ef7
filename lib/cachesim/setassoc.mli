(** A set-associative cache with a pluggable replacement policy.

    Operates on line numbers (byte address / line size); the caller
    does the division.  Mutable, one instance per cache in the
    hierarchy.  Hit/miss counters are built in.

    The default policy is true LRU — the seed engine's behavior, kept
    on its own code path (recency order IS the way order) so it is
    bit-identical to the pre-policy engine.  Every other policy keeps
    ways in physical order and packs its per-set replacement state
    into one int, mediated by {!POLICY}. *)

module Policy = Ctam_arch.Policy

(** The replacement-policy interface: per-set state packed in one int.
    Empty ways are filled lowest-index-first by {!insert}; [victim] is
    consulted only on a full set.  Exposed so the policy state
    machines can be property-tested directly. *)
module type POLICY = sig
  val name : string

  (** Packed state of one freshly-cleared set. *)
  val init : assoc:int -> set:int -> int

  (** State update on a hit at [way]. *)
  val on_hit : assoc:int -> state:int -> way:int -> int

  (** State update after filling [way] (an empty way or the victim). *)
  val on_fill : assoc:int -> state:int -> way:int -> int

  (** Way to evict from a full set, plus the updated state.
      [on_fill] still runs for the chosen way afterwards. *)
  val victim : assoc:int -> state:int -> int * int
end

module Fifo : POLICY
module Plru : POLICY
module Qlru : POLICY
module Mru : POLICY

(** The seeded-xorshift policy behind {!Policy.Random}. *)
val random_policy : seed:int -> (module POLICY)

type t

(** [create ?policy ~sets ~assoc ()] builds an empty cache
    ([policy] defaults to {!Policy.Lru}).
    @raise Invalid_argument on non-positive arguments, or when the
    policy's packed state cannot hold [assoc] ways (plru > 32,
    qlru > 31, mru/fifo > 62). *)
val create : ?policy:Policy.t -> sets:int -> assoc:int -> unit -> t

val sets : t -> int
val assoc : t -> int

(** The replacement policy this instance runs. *)
val policy : t -> Policy.t

(** Number of lines the cache can hold. *)
val capacity_lines : t -> int

(** [set_of_line t line] is the set index [line] maps to — exposed so
    observability probes can attribute misses to sets (conflict
    histograms) without duplicating the mapping rule. *)
val set_of_line : t -> int -> int

(** [access t line] looks up [line]; on hit, applies the policy's hit
    update (LRU: promote to MRU) and returns [true]; on miss returns
    [false] and does NOT insert (use {!insert} to model the fill). *)
val access : t -> int -> bool

(** [insert t line] fills [line] (LRU: as MRU), evicting the policy's
    victim if the set is full.  Returns the evicted line, if any.  A
    [line] already resident gets the hit update instead. *)
val insert : t -> int -> int option

(** [fill t line] is {!insert} for a [line] known to be absent (say, one
    {!access} just missed): it skips the tag scan and returns the
    evicted line unboxed, -1 for none.  A hierarchy access fills its
    missed levels with it, so a miss scans each set once and allocates
    nothing. *)
val fill : t -> int -> int

(** Pure lookup without policy-state update or counter changes. *)
val contains : t -> int -> bool

(** [invalidate t line] drops [line] if present; returns whether it was
    present. *)
val invalidate : t -> int -> bool

val hits : t -> int
val misses : t -> int
val accesses : t -> int

(** Reset contents, policy state and counters. *)
val clear : t -> unit

(** Copy of the raw state image — the phase-memo snapshot.  For LRU
    this is exactly the way array (ways MRU-first per set segment;
    -1 = empty), unchanged from the seed; for other policies the
    per-set packed policy state words are appended after the way
    array. *)
val snapshot_lines : t -> int array

(** Overwrite the way array (and policy state) with a
    {!snapshot_lines} image.  Counters are untouched (memo replay
    bumps them separately via {!add_counts}).
    @raise Invalid_argument when the image has a different geometry. *)
val restore_lines : t -> int array -> unit

(** Bump the hit/miss counters by recorded deltas (memo replay). *)
val add_counts : t -> hits:int -> misses:int -> unit

(** Fold over the raw state image in storage order (state hashing):
    the way array, then any policy state words. *)
val fold_lines : ('a -> int -> 'a) -> 'a -> t -> 'a

(** Lines currently resident (unordered). *)
val resident : t -> int list

val pp : t Fmt.t
