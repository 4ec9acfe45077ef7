(** Parsing cache topologies from a textual description.

    The format is an S-expression tree, one node per cache, cores as
    leaves (numbered automatically left-to-right, or explicitly):

    {v
    (machine "MyMachine" (clock 2.4) (mem 120)
      (cache "L3#0" (level 3) (size 12M) (assoc 16) (line 64) (latency 36)
        (cache "L2#0" (level 2) (size 3M) (assoc 12) (line 64) (latency 10)
          (core) (core))
        (cache "L2#1" (level 2) (size 3M) (assoc 12) (line 64) (latency 10)
          (cores 2))))
    v}

    Sizes accept [K]/[M]/[G] suffixes.  [(cores n)] expands to [n]
    automatically numbered cores, at most 65536 in one machine.
    Comments run from [;] to end of line. *)

exception Error of string

(** [parse text] builds a validated topology.
    @raise Error with a descriptive message on syntax or structure
    problems (including the validation errors of {!Topology.make}). *)
val parse : string -> Topology.t

(** [to_text t] renders a topology back into parsable form
    (round-trips through {!parse}). *)
val to_text : Topology.t -> string
