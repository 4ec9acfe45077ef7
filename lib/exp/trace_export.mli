(** Chrome trace-event / Perfetto export of a {!Ctam_cachesim.Sink}'s
    timeline.  Both functions raise [Invalid_argument] on a sink created
    without a window.

    [trace_json] renders the timeline as a trace-event JSON object
    loadable by [chrome://tracing] and [ui.perfetto.dev]:

    - process 0 ("simulated machine"): one thread per core carrying
      [ph:"X"] duration spans per executed iteration-group segment
      (args: segment, phase, accesses, misses, mem) plus [ph:"C"]
      counter samples ("core<c> L<l>": hits/misses per window); a
      "sync" thread with phase spans, barrier instants and the
      machine-wide "reuse split" counter; a "coherence" thread with
      write-invalidation instants;
    - process 1 ("ctamap compiler"): back-to-back wall-clock spans,
      one per entry of [compile_timings] (the frontend passes and
      [Mapping.compile]'s per-pass [timings], each the sum of that
      pass's {!Ctam_telemetry.Span}s).

    Simulated cycles map 1:1 to trace microseconds; compiler spans use
    real wall microseconds.  Events are sorted by (pid, tid, ts) with
    insertion order as the tie-break, so per-track timestamps are
    non-decreasing (asserted by test_exp "traces valid") and the output is
    deterministic. *)

val trace_json :
  ?compile_timings:(string * float) list ->
  program:string ->
  machine:string ->
  scheme:string ->
  legend:(int * (string * int)) list ->
  Ctam_cachesim.Sink.t ->
  Ctam_util.Json.t

(** Windowed time-series image for embedding in a run report:
    window/num_windows, the machine-wide reuse split arrays, and per
    core accesses, busy, occupancy (busy / window, may exceed 1) and
    per-level hits / misses / miss-rate arrays. *)
val series_json : Ctam_cachesim.Sink.t -> Ctam_util.Json.t
