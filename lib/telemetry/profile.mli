(** Self-profiling: the pipeline-phase metric families and GC
    pressure, rendered as the [--metrics-out] snapshot and the run
    report's [telemetry] member.

    Phases are dot-separated and lowercase.  Every compile observes
    ["mapping.group"], ["mapping.distribute"], ["mapping.schedule"] and
    ["mapping.trace"] from its {!Span}s; a profiled run adds
    ["frontend.parse"] and ["frontend.lower"] for a DSL source, and
    ["simulate"] with the words the simulation allocated.  Observations
    happen only when {!Metrics.enabled}. *)

val seconds : Metrics.Histogram.metric
(** [ctam_phase_seconds{phase}]: wall-clock seconds per phase. *)

val minor_words : Metrics.Counter.metric
(** [ctam_phase_minor_words_total{phase}]: minor-heap words allocated
    inside a phase. *)

val major_words : Metrics.Counter.metric
(** [ctam_phase_major_words_total{phase}]: major-heap words allocated
    inside a phase. *)

(** {1 Snapshots} *)

val gc_json : unit -> Ctam_util.Json.t
(** Image of [Gc.quick_stat]: minor/major/promoted words, collection
    counts, heap words, compactions. *)

val gc_delta_json : Gc.stat -> Gc.stat -> Ctam_util.Json.t
(** [gc_delta_json before after]: allocation and collection deltas
    (words as floats, counts as ints) plus the final heap size. *)

val snapshot_json :
  ?registry:Metrics.t -> version:string -> telemetry_version:int ->
  unit -> Ctam_util.Json.t
(** The full [--metrics-out] payload:
    [{ctam_metrics_version, version, gc, metrics}].  [version] is the
    tool version string (passed in to keep this library independent of
    {!Ctam_exp.Build_info}). *)

val write_snapshot :
  ?registry:Metrics.t -> version:string -> telemetry_version:int ->
  string -> unit
(** {!snapshot_json} to a file (trailing newline).
    @raise Sys_error on write failure. *)
