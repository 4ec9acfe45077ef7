(** C code generation: materialize a compiled mapping as a complete,
    compilable OpenMP C program.

    This is the back end the paper feeds from the Omega library's
    [codegen]: each core's iteration groups become explicit loop nests
    (box decompositions of their iteration sets), cores are OpenMP
    threads selected by [omp_get_thread_num()], and scheduling rounds
    are separated by [#pragma omp barrier].

    The emitted program is self-contained: array definitions,
    initialization, the mapped parallel nests, and a checksum print so
    two mappings of the same program can be diffed for semantic
    equivalence (the bodies are sums, so any iteration order agrees). *)

(** [program c] renders the whole compiled mapping. *)
val program : Mapping.compiled -> string

(** [nest_for_core ~plan ~core] renders one core's share of one nest's
    plan as a bare statement list, round by round, in the statement
    syntax of {!program} (the tests read it).  [ctamap codegen] prints
    the same groups its own way: one Omega-style loop nest per group,
    headed by its id and tag weight. *)
val nest_for_core : plan:Mapping.nest_plan -> core:int -> string
