(** A simulated instance of a cache topology.

    Instantiates one {!Setassoc} per cache in a {!Ctam_arch.Topology},
    maintains inclusive fills along each core's path, and optionally a
    write-invalidate coherence action: a write removes the line from
    every cache off the writing core's path, at any level (on
    Dunnington, the other socket's L3 too).  The sweep that does so
    visits only the caches filled since the last {!clear} or put a
    line in by {!restore}: every other cache is empty. *)

type t

(** [create ?coherence ?probe ?sample_sets topo].  When [coherence] is
    true (default), a write invalidates the line in every cache that is
    not on the writing core's path, modelling an invalidation-based
    protocol.  A fixed 1024-slot last-writer filter skips sweeps it
    can show would find no copy: each slot remembers a line and the
    core whose write last swept it, and that core's next write to the
    line skips the sweep unless another core has filled the line
    since.  A sweep that does run visits only the caches filled since
    the last {!clear} or {!restore} (see {!filled_instances}), so a
    run on a few cores of a wide machine does not probe the empty
    caches of the others.  Statistics and probe events are those of a
    full sweep.  [probe] (default {!Probe.null}) observes per-level
    hits/misses, evictions, invalidations and memory accesses; the
    engine fires its issue/phase/barrier events through the same
    probe.  Takes time and memory linear in the topology and its
    cache capacity.

    [sample_sets] (default 1 = exact) enables constant-bit set
    sampling: the engine simulates only lines with
    [line mod sample_sets = 0] and {!Engine} extrapolates the
    statistics by the factor.  The factor must be a power of two that
    divides every cache's set count — then the sampled sets receive
    exactly the line population an exact run would give them (the
    sampled lines land on the sets congruent to 0 mod the factor and
    on nothing else), so sampling error comes only from the estimated
    latencies of skipped accesses and cross-set interleaving shifts.
    @raise Invalid_argument otherwise, with {!check_sample_sets}'s
    message. *)
val create :
  ?coherence:bool ->
  ?probe:Probe.t ->
  ?sample_sets:int ->
  Ctam_arch.Topology.t ->
  t

(** [check_sample_sets topo n] is [Ok ()] when [n] is a valid
    [sample_sets] factor for [topo] (see {!create}), else an error
    naming the first cache whose set count it does not divide. *)
val check_sample_sets : Ctam_arch.Topology.t -> int -> (unit, string) result

val topology : t -> Ctam_arch.Topology.t

(** The attached probe ({!Probe.null} when none). *)
val probe : t -> Probe.t

(** [access t ~core ~addr ~write] simulates one byte-address access and
    returns its latency in cycles: the sum of the latencies of every
    cache probed, plus memory latency if all levels miss.  Fills the
    line into every cache on the core's path.
    @raise Invalid_argument if [core] is out of range. *)
val access : t -> core:int -> addr:int -> write:bool -> int

(** Latency of a hit in the given core's level-[l] cache, including the
    probe costs of the levels below; used by analytic cost models.
    [None] if the core has no level-[l] cache. *)
val hit_latency : t -> core:int -> level:int -> int option

(** Latency of missing everywhere (probes on the path + memory). *)
val miss_latency : t -> core:int -> int

(** Snapshot of per-level hit/miss counters (cycles fields are zero;
    the engine fills them in). *)
val level_stats : t -> Stats.level_stats list

(** Number of accesses that reached memory. *)
val mem_accesses : t -> int

(** Reset contents and counters, and empty the write filter and the
    filled list. *)
val clear : t -> unit

(** Line size used for address-to-line mapping (caches of one machine
    share it). *)
val line_size : t -> int

(** [log2] of {!line_size} when it is a power of two, else -1. *)
val line_shift : t -> int

(** [line_of t addr] is the line number of a byte address — the
    quantity set sampling filters on. *)
val line_of : t -> int -> int

(** Sampling factor passed to {!create} (1 = exact). *)
val sample_factor : t -> int

(** Fingerprint of (topology geometry, latencies, replacement
    policies, core paths, coherence, sampling factor) — a component of
    the phase-memo key. *)
val config_hash : t -> int

(** Number of cache instances (the length of the arrays below). *)
val num_instances : t -> int

(** The caches the write-invalidate sweep visits, as indices into
    {!Ctam_arch.Topology.caches}, ascending: those filled since the
    last {!clear}, plus those the last {!restore} image put a line in.
    Every cache holding a line is among them. *)
val filled_instances : t -> int list

(** {2 Phase-memo state capture}

    The engine's per-phase memoization snapshots and restores raw
    cache contents and replays counter deltas; see {!Memo}. *)

(** Per-instance copies of the raw way arrays. *)
val snapshot : t -> int array array

(** Overwrite every instance's way array with a {!snapshot} image and
    empty the write filter, since the image can hold any line in any
    cache.  The filled list becomes the caches the image holds a line
    in.  Counters are untouched.
    @raise Invalid_argument on an image from a different hierarchy. *)
val restore : t -> int array array -> unit

(** Per-instance [(hits, misses)] counter snapshots. *)
val instance_counts : t -> int array * int array

(** Bump per-instance hit/miss counters and the memory-access counter
    by recorded deltas (memo replay).
    @raise Invalid_argument on length mismatch. *)
val bump_counts : t -> hits:int array -> misses:int array -> mem:int -> unit

(** Hash of all instances' current contents (the {!Memo} hash pair). *)
val state_hash : t -> int * int
