(** The probe sink of an observed run: what the run did, where its
    reuse happened, and — with a window — when.

    Attach with [Hierarchy.create ~probe:(Sink.probe s)] (or
    [Mapping.simulate ~probe]) and read the accumulators after the run.
    Every sink keeps

    - per-core × per-level hit, miss and eviction counters, per-core
      accesses, writes and memory accesses, and the barrier and
      invalidation counts;
    - per-group totals: each access, miss and memory access is charged
      to the iteration group that issued it (see [segments] below);
    - the reuse split: every non-cold access is classified once by who
      touched its line last — the same core ({e vertical} reuse, the
      paper's β direction), a different core sharing an on-chip cache
      ({e horizontal}, α), or a core of another socket (reachable only
      through memory) — into reuse-distance histograms;
    - per-level, per-set miss counts, exposing set conflicts.

    A sink created with a [window] also mirrors the engine's per-core
    clocks through {!Probe.t.on_retire} and keeps a timeline:

    - {e spans}: maximal runs of consecutive accesses by one core
      executing one segment within one phase, with access, miss and
      memory counts; they become Chrome-trace duration events in
      [Trace_export];
    - phase and barrier marks, and a capped invalidation log;
    - {e windowed series} over cycle intervals [[k*window,
      (k+1)*window)]: per-core accesses and busy cycles, per-core ×
      level hits and misses, the machine-wide reuse split, and
      per-level set × window miss heatmaps.

    Approximation: all events of one access (level probes, memory,
    invalidations) are charged to the window of the issuing core's
    clock {e before} the access retires; an access whose latency spans
    a window boundary is not split.

    The sink only observes: attaching it never changes simulated cycle
    counts (differential-tested). *)

type t

(** [create ?window ?segments topo] builds a sink for machines shaped
    like [topo].  [window], when given, is the width in cycles of the
    timeline's series buckets.  [segments], when given, must align with
    the engine's phase list: for each phase, for each core, the sorted
    [(start_access_index, segment_id)] boundaries of the iteration
    groups concatenated into that core's stream (see
    [Mapping.segments]); without it every access is untagged.
    @raise Invalid_argument if [window <= 0]. *)
val create :
  ?window:int ->
  ?segments:(int * int) array array list ->
  Ctam_arch.Topology.t ->
  t

val probe : t -> Probe.t

(** Cache levels observed, ascending (the topology's levels). *)
val levels : t -> int list

val num_cores : t -> int

(** {1 Totals} *)

val hits : t -> core:int -> level:int -> int
val misses : t -> core:int -> level:int -> int
val evictions : t -> core:int -> level:int -> int

(** Accesses issued by the core (engine [on_access] events). *)
val accesses : t -> core:int -> int

val writes : t -> core:int -> int

(** Accesses by this core that were served by memory. *)
val mem : t -> core:int -> int

(** Write-invalidations, all of them (the log below is capped). *)
val invalidations : t -> int

val barriers : t -> int

(** Per-group totals, charged to the group whose iterations issued the
    access. *)
type group_stat = {
  g_accesses : int;      (** accesses issued while the group ran *)
  g_misses : int array;  (** per level, aligned with {!levels} *)
  g_mem : int;           (** accesses that reached memory *)
}

(** Groups seen (id as given in [segments]), ascending. *)
val group_stats : t -> (int * group_stat) list

(** Reuse by the same core — the β (vertical) direction. *)
val vertical : t -> Reuse.histogram

(** Reuse across cores that share an on-chip cache — α (horizontal). *)
val horizontal : t -> Reuse.histogram

(** Reuse across sockets (no shared cache). *)
val cross : t -> Reuse.histogram

(** First-touch accesses (in no histogram). *)
val cold : t -> int

(** Accesses classified: [cold] plus the three histograms' totals. *)
val total : t -> int

(** [(level, per_set_misses)] ascending by level: how misses at each
    level distribute over cache sets (summed across same-level
    instances). *)
val conflicts : t -> (int * int array) list

(** {1 Timeline}

    Every function below but {!window} raises [Invalid_argument] on a
    sink created without a window. *)

(** The series bucket width, or [None] without a timeline. *)
val window : t -> int option

(** Largest mirrored clock seen (= [Stats.cycles] of the run). *)
val max_cycles : t -> int

(** Number of windows covering [0 .. max_cycles): 0 for an empty run. *)
val num_windows : t -> int

type span = {
  sp_core : int;
  sp_segment : int;  (** segment id from [segments], [-1] untagged *)
  sp_phase : int;
  sp_start : int;    (** cycles *)
  mutable sp_end : int;
  mutable sp_accesses : int;
  mutable sp_misses : int;  (** summed over all levels *)
  mutable sp_mem : int;
}

type barrier = {
  b_phase : int;
  b_enter : int;  (** synchronised clock when the phase drained *)
  b_exit : int;   (** enter + barrier cost *)
}

type invalidation = {
  i_cycles : int;
  i_core : int;  (** the writing core *)
  i_level : int;
  i_line : int;
}

type phase_mark = { ph_index : int; ph_start : int; ph_end : int }

(** Closed spans, sorted by (start cycles, core). *)
val spans : t -> span list

val barrier_marks : t -> barrier list
val phase_marks : t -> phase_mark list

(** The first 10,000 invalidations, chronological. *)
val invalidation_log : t -> invalidation list

(** Invalidations past the log's cap. *)
val dropped_invalidations : t -> int

(** Per-window series, each of length [num_windows]. *)

val accesses_series : t -> core:int -> int array
val busy_series : t -> core:int -> int array
val hits_series : t -> core:int -> level:int -> int array
val misses_series : t -> core:int -> level:int -> int array

(** Machine-wide (vertical, horizontal, cross-socket, cold) per window. *)
val reuse_series : t -> int array * int array * int array * int array

(** [heatmap t ~level] is [Some (sets, misses)] with [misses.(w).(s)]
    the misses in set [s] during window [w] ([sets] = the largest set
    count among level-[level] caches); [None] if the level is absent. *)
val heatmap : t -> level:int -> (int * int array array) option

(** ASCII rendering of the miss heatmap, downsampled to at most 64
    columns (windows) × 24 rows (sets) by summing buckets; [None] if
    the level is absent or the run was empty. *)
val render_heatmap : t -> level:int -> string option
