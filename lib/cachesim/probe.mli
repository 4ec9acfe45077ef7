(** Pluggable observability probes for the cache simulator.

    A probe is a record of callbacks the {!Hierarchy} and {!Engine}
    invoke as simulation events happen: access issue, per-level
    hit/miss, fills' evictions, coherence invalidations, memory
    accesses, phase boundaries and barriers.  The default {!null} probe
    does nothing and is recognised physically ([is_null]) so the hot
    paths skip event construction entirely — simulated cycle counts are
    identical with or without an attached probe, since probes only
    observe.

    Callbacks use labelled immediate arguments rather than an event
    variant so that firing an event allocates nothing. *)

type t = {
  on_access : core:int -> addr:int -> line:int -> write:bool -> unit;
      (** the engine issued an access (before the hierarchy resolves it) *)
  on_level : core:int -> level:int -> set:int -> line:int -> hit:bool -> unit;
      (** one cache probe on the core's path; [set] is the set index the
          line maps to in that cache *)
  on_mem : core:int -> line:int -> unit;
      (** the access missed every level and went to memory *)
  on_evict : core:int -> level:int -> line:int -> unit;
      (** a fill on [core]'s path evicted [line] from its level-[level]
          cache *)
  on_invalidate : core:int -> level:int -> line:int -> unit;
      (** coherence: a write by [core] invalidated [line] in a cache not
          on its path *)
  on_retire : core:int -> cycles:int -> unit;
      (** the engine finished charging the access: [cycles] is [core]'s
          updated local clock (issue cost + resolved latency included).
          Fired after the hierarchy events of the same access, so a
          windowed sink can place every event of the access between the
          core's previous clock and [cycles]. *)
  on_phase_start : phase:int -> unit;
  on_phase_end : phase:int -> cycles:int -> unit;
      (** [cycles] is the max core clock when the phase drained *)
  on_barrier_enter : phase:int -> cycles:int -> unit;
      (** all cores reached the barrier after [phase]; [cycles] is the
          synchronised clock before the barrier cost is charged *)
  on_barrier_exit : phase:int -> cycles:int -> unit;
      (** cores resume at [cycles] (enter time + barrier cost) *)
}

(** The no-op probe; the default everywhere a probe is accepted. *)
val null : t

(** [is_null p] is physical equality with {!null} — lets hot loops skip
    callback dispatch altogether for the default probe. *)
val is_null : t -> bool
