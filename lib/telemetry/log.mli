(** Structured, leveled logging for ctamap itself.

    Replaces the ad-hoc [Printf.eprintf] / [Logs] paths: every message
    carries a level, a source tag and optional structured fields, and
    renders either human-readably or as JSON lines (one RFC 8259 object
    per line via {!Ctam_util.Json}), so warnings are both
    level-filterable and machine-parseable.

    Messages are thunks ([unit -> string]) so a filtered-out call
    costs one branch and never formats:

    {[
      Log.debug ~src:"dep_test" (fun () ->
          Printf.sprintf "FM cap exceeded at level %d" level)
    ]}

    Emission is serialised by a mutex, so domains can log
    concurrently without interleaving lines. *)

type level = Error | Warn | Info | Debug

val level_name : level -> string

val level_of_string : string -> (level option, string) result
(** Accepts [error]/[warn]/[warning]/[info]/[debug] plus [off]/[quiet]
    ([Ok None] = logging disabled). *)

(** {1 Configuration} *)

val env_var : string
(** ["CTAM_LOG"]: initial level (default [warn]). *)

val format_env_var : string
(** ["CTAM_LOG_FORMAT"]: [json] or [human] (default). *)

val set_level : level option -> unit
(** [None] disables all output. *)

val current_level : unit -> level option

val set_level_of_string : string -> (unit, string) result
(** [set_level] via {!level_of_string} — the [--log-level] backend. *)

val set_format : [ `Human | `Json ] -> unit

val format_of_string : string -> ([ `Human | `Json ], string) result
(** Accepts [human]/[text]/[json]. *)

val set_format_of_string : string -> (unit, string) result
(** [set_format] via {!format_of_string} — the [--log-format]
    backend. *)

val set_sink : (string -> unit) -> unit
(** Where rendered lines go (default: [prerr_endline]).  Tests install
    a capturing sink. *)

val enabled : level -> bool

(** {1 Ambient context}

    Domain-local fields appended to every line emitted on this domain
    while the scope is active — how the serving daemon stamps
    [request_id] onto log lines produced deep inside the pipeline
    without threading an argument through every layer.  Scopes nest
    (inner fields append after outer ones) and are restored on exit,
    exceptions included.  The context is per-domain: code that spawns
    a domain to do a request's work must re-establish the scope inside
    it. *)

val with_context : (string * Ctam_util.Json.t) list -> (unit -> 'a) -> 'a

val context : unit -> (string * Ctam_util.Json.t) list
(** The fields currently in scope on this domain. *)

(** {1 Emission} *)

val msg :
  level ->
  ?src:string ->
  ?fields:(string * Ctam_util.Json.t) list ->
  (unit -> string) ->
  unit

val err :
  ?src:string ->
  ?fields:(string * Ctam_util.Json.t) list ->
  (unit -> string) ->
  unit

val warn :
  ?src:string ->
  ?fields:(string * Ctam_util.Json.t) list ->
  (unit -> string) ->
  unit

val info :
  ?src:string ->
  ?fields:(string * Ctam_util.Json.t) list ->
  (unit -> string) ->
  unit

val debug :
  ?src:string ->
  ?fields:(string * Ctam_util.Json.t) list ->
  (unit -> string) ->
  unit
