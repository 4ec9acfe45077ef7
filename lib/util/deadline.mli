(** Cooperative deadlines.

    A deadline belongs to the calling domain: {!within} sets it for the
    extent of one call, and the long-running loops of the pipeline
    (compile passes, domain enumerations, Figure 6's clustering, trace
    generation, the engine's event loop, trace ingestion) poll it with
    {!check} or {!tick}.  Once it has passed, the next poll raises
    {!Expired}, which unwinds the work back to whoever called
    {!within} — the daemon maps it to a [timeout] reply.  Nothing
    between the poll sites and that caller catches it.

    While no deadline is set on any domain (the CLI, the benchmarks, an
    untimed daemon) a poll is one load and a compare; while one is, a
    poll on a domain without one adds a domain-local read. *)

exception Expired

(** [within ~ms f] runs [f ()] with the calling domain's deadline set
    to [ms] milliseconds from now, or to the enclosing [within]'s
    deadline if that is sooner, and restores the previous deadline
    however [f] exits. *)
val within : ms:int -> (unit -> 'a) -> 'a

(** Raise {!Expired} if the calling domain's deadline has passed.  For
    steps that each cost far more than a clock read. *)
val check : unit -> unit

(** One iteration of a hot loop: under a deadline, reads the clock
    once every {!stride} ticks of the calling domain, counted across
    every loop that ticks, so many short loops poll as often as one
    long one. *)
val tick : unit -> unit

(** Ticks between two clock reads: 4096, a power of two. *)
val stride : int
