(* The built executables under test, run as processes: each run takes
   an argument list (no shell), an environment to add and a timeout,
   and a [ctamap serve] daemon is started and stopped around a test.
   Also the one reader of the JSON those processes write, which checks
   that every document survives the library's printer. *)

module J = Ctam_util.Json

(* Under [dune runtest] the cwd is [_build/default/test] and the
   executables and example programs are declared deps; from the repo
   root the build or the source tree has them. *)
let built rel =
  let candidates =
    [ Filename.concat ".." rel; Filename.concat "_build/default" rel; rel ]
  in
  Option.value (List.find_opt Sys.file_exists candidates) ~default:rel

let ctamap = built "bin/ctamap.exe"
let bench = built "bench/main.exe"
let journal_replay = built "tools/journal_replay.exe"
let examples = built "examples/programs"
let fig5 = Filename.concat examples "fig5.ctam"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [with_temp_dir f] is [f dir] for a fresh directory, removed after. *)
let with_temp_dir f =
  let dir = Filename.temp_dir "ctam-test" "" in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

let contains ~affix s = Astring.String.is_infix ~affix s

(* --- JSON ---------------------------------------------------------------- *)

(* [what]'s text as one JSON document, which must also survive a print
   and reparse: [parse (to_string ~minify:true v) = Ok v]. *)
let parse_json ~what text =
  match J.parse text with
  | Error e -> Alcotest.failf "%s: %s" what e
  | Ok v ->
      if J.parse (J.to_string ~minify:true v) <> Ok v then
        Alcotest.failf "%s: does not survive print and reparse" what;
      v

let read_json path = parse_json ~what:path (read_file path)

(* --- processes ------------------------------------------------------------ *)

type result = { code : int; out : string; err : string }

let command exe args =
  let line = String.concat " " (Filename.basename exe :: args) in
  if String.length line <= 200 then line else String.sub line 0 200 ^ "..."

(* The current environment with [env]'s bindings added or replaced. *)
let environment env =
  let bound kv =
    List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") kv) env
  in
  Array.append
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env))
    (Array.of_list
       (List.filter (fun kv -> not (bound kv)) (Array.to_list (Unix.environment ()))))

let reap pid = ignore (Unix.waitpid [] pid)

(* The exit code of [pid], killing it once [timeout] seconds pass. *)
let await ~timeout ~what pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go pause =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          reap pid;
          Alcotest.failf "%s: still running after %g s" what timeout
        end;
        Unix.sleepf pause;
        go (Float.min 0.02 (2. *. pause))
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Alcotest.failf "%s: stopped by signal %d" what s
  in
  go 0.001

let devnull flags = Unix.openfile "/dev/null" flags 0

(* Start [exe args] with [env] added to the environment, stdin empty,
   and the given stdout and stderr, which are closed here. *)
let spawn ~env exe args ~stdout ~stderr =
  let stdin = devnull [ Unix.O_RDONLY ] in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ stdin; stdout; stderr ])
    (fun () ->
      Unix.create_process_env exe
        (Array.of_list (exe :: args))
        (environment env) stdin stdout stderr)

(* Run [exe args] with [env] added to the environment, and fail the
   test unless it exits within [timeout] seconds. *)
let run ?(env = []) ?(timeout = 120.) exe args =
  let out = Filename.temp_file "ctam-run" ".out" in
  let err = Filename.temp_file "ctam-run" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let pid =
        spawn ~env exe args
          ~stdout:(Unix.openfile out [ Unix.O_WRONLY ] 0)
          ~stderr:(Unix.openfile err [ Unix.O_WRONLY ] 0)
      in
      let code = await ~timeout ~what:(command exe args) pid in
      { code; out = read_file out; err = read_file err })

(* [exe args]'s standard output; it must exit [code]. *)
let out ?env ?timeout ?(code = 0) exe args =
  let r = run ?env ?timeout exe args in
  if r.code <> code then
    Alcotest.failf "%s exited %d, not %d:\n%s" (command exe args) r.code code
      (if String.length r.err <= 2000 then r.err else String.sub r.err 0 2000);
  r.out

(* [exe args] must fail, saying [affix] on stdout or stderr. *)
let refused ?env ?timeout ~affix exe args =
  let r = run ?env ?timeout exe args in
  if r.code = 0 then Alcotest.failf "%s exited 0" (command exe args);
  if not (contains ~affix (r.out ^ r.err)) then
    Alcotest.failf "%s does not say %S:\n%s" (command exe args) affix r.err;
  r

(* --- a ctamap serve process ---------------------------------------------- *)

type daemon = { pid : int; socket : string; log : string }

(* Whether the daemon at [socket] answers a ping before [deadline]: a
   daemon that listens but never replies must not hang the wait. *)
let answers_ping ~deadline socket =
  match Ctam_serve.Client.connect socket with
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO
            (Float.max 0.01 (deadline -. Unix.gettimeofday ()));
          Result.is_ok
            (Ctam_serve.Client.request fd (J.Obj [ ("op", J.String "ping") ])))

let status_text = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "was killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "was stopped by signal %d" s

(* Start [ctamap serve] with 2 workers, its socket, plan cache and
   stderr log in [dir], and wait up to 10 s until it answers a ping.
   The socket file is no sign of life: the daemon creates it when it
   binds, before it listens, and a connection made then is refused. *)
let start ?(env = []) ?(args = []) dir =
  let socket = Filename.concat dir "daemon.sock" in
  let log = Filename.concat dir "serve.log" in
  let argv =
    [ "serve"; "--socket"; socket; "--workers"; "2"; "--cache-dir";
      Filename.concat dir "cache" ]
    @ args
  in
  let pid =
    spawn ~env ctamap argv ~stdout:(devnull [ Unix.O_WRONLY ])
      ~stderr:
        (Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
  in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when answers_ping ~deadline socket -> ()
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        reap pid;
        Alcotest.failf "ctamap serve answered no ping on %s within 10 s:\n%s"
          socket (read_file log)
    | _, status ->
        Alcotest.failf "ctamap serve %s before answering a ping:\n%s"
          (status_text status) (read_file log)
  in
  wait ();
  { pid; socket; log }

(* Shut [d] down over the wire; it must exit 0 within 10 s and remove
   its socket. *)
let stop d =
  let kill () =
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d.pid
  in
  match
    run ~timeout:10. ctamap
      [ "client"; "--socket"; d.socket; "--op"; "shutdown" ]
  with
  | exception e ->
      kill ();
      raise e
  | { code = 0; _ } ->
      Alcotest.(check int) "daemon exit status" 0
        (await ~timeout:10. ~what:"ctamap serve" d.pid);
      Alcotest.(check bool) "socket removed" false (Sys.file_exists d.socket)
  | r ->
      kill ();
      Alcotest.failf "client --op shutdown exited %d:\n%s" r.code r.err

(* [f d] against a daemon started as [start] does, then stopped as
   [stop] does, also when [f] fails (the first failure is the one
   reported, followed by the daemon's log). *)
let with_serve ?env ?args dir f =
  let d = start ?env ?args dir in
  match f d with
  | v ->
      stop d;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try stop d
       with e' ->
         Printf.eprintf "and stopping the daemon failed: %s\n%!"
           (Printexc.to_string e'));
      Printf.eprintf "the daemon's log:\n%s\n%!"
        (try read_file d.log with Sys_error m -> m);
      Printexc.raise_with_backtrace e bt

(* [ctamap client --socket S args]'s standard output. *)
let client d args = out ctamap ("client" :: "--socket" :: d.socket :: args)
