(** Named wall-clock spans: the one way ctamap times a phase.

    [with_ name f] times [f] and hands [(name, seconds)] to the
    innermost {!collect} open on the calling domain.  Collectors nest
    on a domain-local stack, like {!Log.with_context}'s fields, so a
    span belongs to exactly one collector, and a compile on a
    [Parallel.map] worker collects its own passes at any job count.

    Every named timing derives from spans: [Mapping.compile]'s per-pass
    [timings] (and [ctam_phase_seconds{phase="mapping.*"}]), the DSL
    frontend's parse and lower, the run report's [timings_seconds], and
    the daemon's per-request spans ([spans_us],
    [ctam_serve_span_seconds]). *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] and appends [(name, wall seconds)] to the
    innermost open collector, whether [f] returns or raises.  With no
    collector open it is just [f ()] and reads no clock. *)

val collect : (unit -> 'a) -> 'a * (string * float) list
(** [collect f] runs [f] and returns its result with the spans closed
    directly inside it (not inside a nested [collect]), in completion
    order.  If [f] raises, the exception propagates and those spans are
    dropped. *)
