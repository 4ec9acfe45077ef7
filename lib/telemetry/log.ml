module J = Ctam_util.Json

type level = Error | Warn | Info | Debug

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" | "err" -> Ok (Some Error)
  | "warn" | "warning" -> Ok (Some Warn)
  | "info" -> Ok (Some Info)
  | "debug" -> Ok (Some Debug)
  | "off" | "quiet" | "none" -> Ok None
  | other ->
      Error
        (Printf.sprintf
           "unknown log level '%s' (error|warn|info|debug|off)" other)

let env_var = "CTAM_LOG"
let format_env_var = "CTAM_LOG_FORMAT"

(* [state] is only mutated from configuration calls (CLI startup,
   tests); emission reads it without locking and serialises the actual
   sink call with [emit_lock]. *)

let cur_level =
  ref
    (match Sys.getenv_opt env_var with
    | Some s -> ( match level_of_string s with Ok l -> l | Error _ -> Some Warn)
    | None -> Some Warn)

let cur_format =
  ref
    (match Option.map String.lowercase_ascii (Sys.getenv_opt format_env_var) with
    | Some "json" -> `Json
    | _ -> `Human)

let sink = ref prerr_endline
let emit_lock = Mutex.create ()

(* Ambient per-domain context: fields appended to every line emitted
   while a [with_context] scope is active on this domain.  The daemon
   uses it to stamp request_id/conn onto log lines produced deep in
   the pipeline (cache corruption warnings, FM-cap notes) without
   threading a context argument through every layer. *)
let context_key : (string * J.t) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let context () = Domain.DLS.get context_key

let with_context fields f =
  let saved = Domain.DLS.get context_key in
  Domain.DLS.set context_key (saved @ fields);
  Fun.protect ~finally:(fun () -> Domain.DLS.set context_key saved) f

let set_level l = cur_level := l
let current_level () = !cur_level

let set_level_of_string s =
  match level_of_string s with
  | Ok l ->
      set_level l;
      Ok ()
  | Error e -> Error e

let set_format f = cur_format := f
let set_sink f = sink := f

let enabled l =
  match !cur_level with None -> false | Some max -> severity l <= severity max

let render_human ~ts ~level ~src ~fields text =
  let b = Buffer.create 128 in
  let tm = Unix.gmtime ts in
  Buffer.add_string b
    (Printf.sprintf "[%02d:%02d:%06.3f] %-5s" tm.Unix.tm_hour tm.Unix.tm_min
       (float_of_int tm.Unix.tm_sec +. (ts -. Float.of_int (int_of_float ts)))
       (level_name level));
  (match src with
  | Some s ->
      Buffer.add_char b ' ';
      Buffer.add_string b s;
      Buffer.add_char b ':'
  | None -> ());
  Buffer.add_char b ' ';
  Buffer.add_string b text;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (J.to_string ~minify:true v))
    fields;
  Buffer.contents b

let render_json ~ts ~level ~src ~fields text =
  J.to_string ~minify:true
    (J.Obj
       ([ ("ts", J.Float ts); ("level", J.String (level_name level)) ]
       @ (match src with Some s -> [ ("src", J.String s) ] | None -> [])
       @ [ ("msg", J.String text) ]
       @ fields))

let format_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "json" -> Ok `Json
  | "human" | "text" -> Ok `Human
  | other ->
      Error (Printf.sprintf "unknown log format '%s' (human|json)" other)

let set_format_of_string s =
  match format_of_string s with
  | Ok f ->
      set_format f;
      Ok ()
  | Error e -> Error e

let msg level ?src ?(fields = []) k =
  if enabled level then begin
    let text = k () in
    let fields = Domain.DLS.get context_key @ fields in
    let ts = Unix.gettimeofday () in
    let line =
      match !cur_format with
      | `Human -> render_human ~ts ~level ~src ~fields text
      | `Json -> render_json ~ts ~level ~src ~fields text
    in
    Mutex.lock emit_lock;
    (try !sink line with e -> Mutex.unlock emit_lock; raise e);
    Mutex.unlock emit_lock
  end

let err ?src ?fields k = msg Error ?src ?fields k
let warn ?src ?fields k = msg Warn ?src ?fields k
let info ?src ?fields k = msg Info ?src ?fields k
let debug ?src ?fields k = msg Debug ?src ?fields k
