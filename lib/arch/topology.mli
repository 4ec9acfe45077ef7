(** On-chip cache topologies: the trees of Figure 1 / Figure 12.

    A topology is a forest of cache trees (one root per last-level
    cache, i.e. per socket); the paper treats off-chip memory as the
    conceptual root when there is more than one last-level cache.
    Leaves are cores, numbered left-to-right from 0. *)

type cache_params = {
  cache_name : string;   (** e.g. "L2#1" — unique within a topology *)
  level : int;           (** 1 = closest to the core *)
  size_bytes : int;
  assoc : int;
  line : int;            (** line size in bytes *)
  latency : int;         (** access latency in cycles *)
  policy : Policy.t;     (** replacement policy ({!Policy.Lru} default) *)
}

type tree =
  | Cache of cache_params * tree list
  | Core of int

type t = private {
  name : string;
  clock_ghz : float;
  mem_latency : int;     (** off-chip access latency in cycles *)
  roots : tree list;     (** one per socket / last-level cache *)
  num_cores : int;
}

(** [make ~name ~clock_ghz ~mem_latency roots] validates that cores are
    numbered [0..n-1] left-to-right with no gaps, that cache names are
    unique, levels decrease toward the leaves, and every cache has a
    positive associativity and line size and holds at least one set
    ([size >= assoc * line]).
    @raise Invalid_argument otherwise. *)
val make : name:string -> clock_ghz:float -> mem_latency:int -> tree list -> t

(** All cache parameter records, pre-order, roots left to right. *)
val caches : t -> cache_params list

(** Distinct cache levels present, ascending (e.g. [[1;2;3]]). *)
val levels : t -> int list

(** [path_of_core t c] is the chain of caches from the core's L1 up to
    its last-level cache (ascending level).
    @raise Invalid_argument if [c] is out of range. *)
val path_of_core : t -> int -> cache_params list

(** [paths t] is every core's {!path_of_core}, indexed by core, from
    one walk of the tree: linear in its size, where a call of
    {!path_of_core} per core is quadratic. *)
val paths : t -> cache_params list array

(** [cores_under tree] lists the core ids below a tree node. *)
val cores_under : tree -> int list

(** [affinity_level t c1 c2] is the smallest cache level at which the
    two cores share a cache, or [None] if they only share memory
    (different sockets).  Two cores "have affinity" (paper §2) iff this
    is [Some _]. *)
val affinity_level : t -> int -> int -> int option

(** Each core's tree in [t.roots], by index.  Every root is a cache, so
    two distinct cores share one exactly when their roots are equal. *)
val root_of_cores : t -> int array

(** First (closest-to-core) level that is shared by more than one core
    anywhere in the topology; [None] if all caches are private. *)
val first_shared_level : t -> int option

(** Groups of cores under each cache of level [l], left to right. *)
val sharing_domains : t -> int -> int list list

(** Total capacity in bytes of all caches at level [l]. *)
val level_capacity : t -> int -> int

(** Transform every cache's parameters (used to scale capacities). *)
val map_caches : (cache_params -> cache_params) -> t -> t

(** Apply parsed [--policy] bindings ({!Policy.parse_spec}): [None]
    covers every level, [Some l] one level; the last covering binding
    wins. *)
val with_policy_spec : (int option * Policy.t) list -> t -> t

(** Parse a policy spec ({!Policy.parse_spec}) and apply it with
    {!with_policy_spec}.  [Error] carries the parse error, or names a
    bound level the machine does not have. *)
val apply_policy_spec : string -> t -> (t, string) result

(** Drop all cache levels above [l] (keep levels [<= l]), re-rooting the
    forest.  Used for the "L1+L2" / "L1+L2+L3" versions of Figure 20. *)
val truncate_levels : int -> t -> t

val pp : t Fmt.t
