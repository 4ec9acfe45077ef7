(** Reuse-distance (LRU stack distance) analysis.

    The classic locality metric behind the paper's reasoning: an access
    hits in a fully-associative LRU cache of capacity C iff its reuse
    distance (number of *distinct* lines touched since the previous
    access to the same line) is below C.  Profiling a schedule's
    per-core streams explains where a mapping's hits come from, without
    simulating a particular hierarchy. *)

type histogram = {
  buckets : int array;
      (** [buckets.(i)] counts accesses with distance in
          [2^(i-1), 2^i) (bucket 0: distance 0, i.e. consecutive
          re-access) *)
  cold : int;      (** first-touch accesses (infinite distance) *)
  total : int;
}

(** Number of histogram buckets ([buckets] arrays have this length). *)
val nbuckets : int

(** [bucket_of d] is the histogram bucket of finite distance [d]. *)
val bucket_of : int -> int

(** An incremental LRU-stack recorder, for observers that see one
    access at a time (the probe sink) rather than a whole stream.  It
    remembers which core touched each line last, so one lookup per
    access gives both the distance and the direction of a reuse. *)
module Online : sig
  type t

  val create : unit -> t

  (** [touch t ~core line] records [core]'s access to [line] and
      returns its reuse distance, or [-1] on a cold (first) touch.
      @raise Invalid_argument if [line] is negative, or [core]
      negative or not below 2{^20}. *)
  val touch : t -> core:int -> int -> int

  (** The core of the previous access to the line of the last
      {!touch}; [-1] after a cold touch. *)
  val previous_core : t -> int

  (** Accesses recorded so far. *)
  val touched : t -> int
end

(** [of_lines lines] profiles a single stream of line numbers with an
    exact (balanced-tree) LRU stack. *)
val of_lines : int array -> histogram

(** [of_stream stream ~line] decodes engine-encoded accesses (see
    {!Engine.encode_access}) and maps byte addresses to lines. *)
val of_stream : int array -> line:int -> histogram

(** Fraction of (non-cold) accesses with distance < [lines] — the hit
    ratio of a fully-associative LRU cache with that many lines. *)
val hit_ratio_at : histogram -> lines:int -> float

(** Mean finite reuse distance (geometric bucket midpoints). *)
val mean_distance : histogram -> float

(** Merge per-core histograms into a machine-wide one. *)
val merge : histogram list -> histogram

val pp : histogram Fmt.t
