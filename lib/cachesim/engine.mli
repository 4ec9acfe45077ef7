(** Parallel execution engine.

    Executes per-core access streams on a {!Hierarchy}, interleaving
    cores in simulated-time order (the core with the smallest local
    clock issues next), which models concurrent execution over shared
    caches.  Streams are grouped into phases separated by barriers:
    within a phase cores run freely; at a barrier every core waits for
    the slowest.

    An access is encoded as [addr * 2 + (if write then 1 else 0)] so a
    stream is a flat [int array] (see {!encode_access}).  A stream may
    alternatively be a {!cursor} that generates the same encoded words
    a chunk at a time — the engine draws chunks lazily, so
    generator-backed traces never materialize, and it reads every
    access from an array either way.  A dense stream is usually a
    cursor forced once ({!force_stream}).

    Every access costs {!issue_cost} cycles beyond its latency, and
    every barrier adds {!barrier_cost} cycles to each core. *)

type phase = int array array
(** [phase.(core)] is the encoded access stream of [core] in this
    phase.  All phases of a run must have the same number of cores as
    the hierarchy's topology. *)

val encode_access : addr:int -> write:bool -> int
val decode_access : int -> int * bool

(** Cycles to issue each access, beyond its latency: 1. *)
val issue_cost : int

(** Cycles added to every core at each barrier: 64. *)
val barrier_cost : int

(** {2 Lazy streams} *)

type cursor = {
  length : int;  (** total accesses the cursor yields *)
  reset : unit -> unit;  (** rewind to the first access *)
  refill : unit -> int array * int;
      (** [(buf, n)]: the next [n] accesses are [buf.(0)]..[buf.(n-1)],
          valid until the next [refill] or [reset].  [n] >= 1 while
          accesses remain; effectful *)
}
(** A restartable generator of encoded accesses, handed out in chunks.
    Consumers call [reset] before the first [refill]; the engine resets
    every cursor at the start of each phase, so a compiled stream can
    be run many times.  Every consumer takes exactly [length] accesses:
    a chunk that runs past [length] is cut, and a cursor whose chunks
    end before it ([n] = 0) raises [Invalid_argument]. *)

type stream = Dense of int array | Gen of cursor
type stream_phase = stream array

val dense : int array -> stream
val stream_length : stream -> int

(** Materialize a stream: a [Dense] array itself, uncopied; a [Gen]
    is reset, then its chunks are copied in order into one fresh
    array.
    @raise Invalid_argument when a cursor ends before its length. *)
val force_stream : stream -> int array

(** Wrap every per-core array of a dense phase. *)
val of_phase : phase -> stream_phase

(** Materialize every stream of a phase. *)
val force_phase : stream_phase -> phase

(** Concatenate streams in order.  All-dense inputs concatenate
    eagerly into a [Dense]; otherwise the result is a [Gen] whose
    chunks walk the parts lazily: a dense part is one chunk, uncopied,
    and a generator part is reset when the walk reaches it. *)
val stream_concat : stream list -> stream

(** {2 Running} *)

(** [run_streams ?max_cycles ?memo h phases] clears [h],
    executes the phases and returns statistics.  The number of
    barriers reported is [max 0 (List.length phases - 1)].  Dense and
    generator-backed streams produce bit-identical event order and
    statistics (asserted by the differential tests).

    If a {!Probe} is attached to [h] the engine fires
    [on_phase_start]/[on_phase_end] around each phase,
    [on_barrier_enter]/[on_barrier_exit] around each barrier,
    [on_access] before every resolved access (the hierarchy then fires
    the per-level events), and [on_retire] with the issuing core's
    updated clock once the access has been charged; with the default
    null probe no callback is invoked and the run is identical to an
    unobserved one.

    [max_cycles] is an early-termination budget for search drivers
    (the autotuner's successive halving): once the smallest per-core
    clock reaches the cap, the rest of the run — including any
    remaining phases — is cut without drawing another chunk from any
    generator (a chunk is drawn only when its first access is about to
    issue).  The returned statistics then describe only the
    executed prefix ([total_accesses] counts issued accesses; [cycles]
    is at least the cap), which is enough to classify the
    configuration as a loser.  Unobserved capped runs are the intended
    use; probes see a truncated event sequence with no closing
    phase/barrier events.

    When [h] was created with [~sample_sets] > 1, only accesses whose
    line satisfies [line mod sample_sets = 0] are simulated; skipped
    accesses are charged the issuing core's running-mean observed
    latency (the core's miss latency until a sample is seen, reset per
    phase), and per-level hit/miss and memory counters are
    extrapolated by the factor.  [total_accesses] stays unscaled.

    When [memo] is given, the run is unobserved, and no [max_cycles]
    cap is set, each phase's (entry cache state × stream contents ×
    hierarchy configuration) is hashed; a table hit replays the
    recorded per-core clock/busy deltas, per-cache counter deltas and
    exit cache state instead of simulating — byte-identical
    statistics.  With a probe or a cap the memo is silently inert.
    @raise Invalid_argument on core-count mismatch, or when a cursor
    ends before its length. *)
val run_streams :
  ?max_cycles:int ->
  ?memo:Memo.t ->
  Hierarchy.t ->
  stream_phase list ->
  Stats.t

(** [run ?max_cycles h phases] = {!run_streams} over dense phases. *)
val run : ?max_cycles:int -> Hierarchy.t -> phase list -> Stats.t

(** The seed engine: a linear scan over all cores before every access
    instead of {!run_streams}'s index min-heap, over each phase's
    streams materialized with {!force_stream} (so it shares no chunk
    handling with the engine it checks).  Identical semantics and
    event order (ties on equal clocks go to the lowest core id in
    both); kept as the reference path for differential tests, the
    heap-vs-scan micro-benchmark and the policy sweep's LRU gate.  No
    sampling (@raise Invalid_argument on a sampled hierarchy), no cap,
    no memo. *)
val run_reference_streams : Hierarchy.t -> stream_phase list -> Stats.t

(** {!run_reference_streams} over dense phases. *)
val run_reference : Hierarchy.t -> phase list -> Stats.t

(** [run_serial h stream] executes a single stream on core 0 — the
    paper's single-core baseline (Table 2). *)
val run_serial : Hierarchy.t -> int array -> Stats.t
