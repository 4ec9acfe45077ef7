(* serve_probe: hostile-input harness and report comparator for the
   mapping daemon (tools/check_serve.sh drives it).

   [serve_probe abuse SOCKET] speaks the wire protocol by hand — raw
   bytes, not the client library — and throws every class of bad
   input at a running daemon: a length prefix that is plain garbage
   (an HTTP request), an oversized-but-honest frame, unparseable
   JSON, valid JSON that is not a request, and a mid-frame
   disconnect.  After each it asserts the structured error reply the
   protocol promises and, where the connection survives by contract,
   that a ping on the same connection still answers.  Exit 0 means
   the daemon never died and never replied out of frame.

   [serve_probe wire SOCKET REQUEST] sends the JSON request object
   REQUEST twice on one raw connection, under a client id full of
   escapes, and checks the reply frames byte for byte: each payload
   must be the canonical minified encoding of its own parse (what the
   daemon splices around a cached plan's stored bytes must be exactly
   what encoding the whole reply would give), must echo the id, and
   both must carry identical result bytes.  It prints the two replies'
   [cached] flags, so a caller can tell which tier answered.

   [serve_probe deadline SOCKET [PID]] sends 200 nocache [run]
   requests with a 1 ms [timeout_ms] over 2 connections, one in flight
   on each, and checks that every reply is a [timeout] error echoing
   its id, that the burst takes under 20 s, that the daemon's
   [timeouts] counter grows by exactly 200 and — when PID is given and
   /proc exists — that the daemon's thread count never rises above
   its idle count: timed-out work stops instead of running on in
   domains of its own.

   [serve_probe deep SOCKET] sends three frames of 200,000 nested
   arrays, each on a fresh connection (more connections than the
   daemon's 2 workers), and requires an [internal] error reply to each
   within 5 s, then a pong: under a small stack (tools/check_serve.sh
   runs this daemon with [OCAMLRUNPARAM=l=256k]) decoding them
   overflows, and no frame may take a worker away.

   [serve_probe deep-id SOCKET] sends a ping whose [id] is 30,000
   nested arrays, which decodes on a small stack, and requires within
   5 s a pong echoing that id, then a pong to a plain ping on the same
   connection: encoding the echo must not take the worker away
   either.

   [serve_probe compare A B] checks two JSON documents are equal
   modulo the volatile report members ("timings_seconds",
   "telemetry" — wall clocks and process state), i.e. that a served
   answer is the one-shot answer. *)

module J = Ctam_util.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve_probe: " ^ s);
      exit 1)
    fmt

(* --- raw wire helpers ------------------------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* A hung daemon must fail the probe, not hang it. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

exception Eof

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then Bytes.to_string b
    else
      match Unix.read fd b off (n - off) with 0 -> raise Eof | k -> go (off + k)
  in
  go 0

let frame payload =
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set hdr 3 (Char.chr (n land 0xFF));
  Bytes.to_string hdr ^ payload

let send_frame fd payload = write_all fd (frame payload)

let recv_frame fd =
  let hdr = read_exact fd 4 in
  let b i = Char.code hdr.[i] in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  if n > 1 lsl 26 then fail "reply frame claims %d bytes" n;
  read_exact fd n

let recv_json fd =
  match J.parse (recv_frame fd) with
  | Ok j -> j
  | Error e -> fail "reply is not JSON: %s" e

let member name j = match j with J.Obj _ -> J.member name j | _ -> None

(* Offset of the first byte at which [a] and [b] differ. *)
let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do incr i done;
  !i

let expect_error what fd code =
  let j = recv_json fd in
  (match member "ok" j with
  | Some (J.Bool false) -> ()
  | _ -> fail "%s: expected ok=false reply, got %s" what (J.to_string ~minify:true j));
  match member "error" j with
  | Some e -> (
      match member "code" e with
      | Some (J.String c) when c = code -> ()
      | Some (J.String c) -> fail "%s: expected error code %s, got %s" what code c
      | _ -> fail "%s: error reply carries no code" what)
  | None -> fail "%s: ok=false reply carries no error member" what

(* A well-formed pong, returning the daemon-minted request id so
   callers can assert ordering. *)
let expect_pong what fd =
  let j = recv_json fd in
  (match (member "ok" j, Option.map (member "pong") (member "result" j)) with
  | Some (J.Bool true), Some (Some (J.Bool true)) -> ()
  | _ -> fail "%s: expected a pong, got %s" what (J.to_string ~minify:true j));
  match member "request_id" j with
  | Some (J.Int rid) -> rid
  | _ -> fail "%s: reply carries no request_id" what

let ping what fd =
  send_frame fd {|{"op":"ping"}|};
  ignore (expect_pong what fd)

let expect_eof what fd =
  match recv_frame fd with
  | exception Eof -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  | s -> fail "%s: expected the connection closed, got a %d-byte frame" what
           (String.length s)

(* --- abuse mode ------------------------------------------------------- *)

let abuse socket =
  (* 1. A client that never spoke the protocol: the first four bytes
     of an HTTP request decode to a ~1.2 GB length, past any drain
     ceiling.  The daemon must reply with a structured error and then
     close this connection — it cannot resynchronize. *)
  let fd = connect socket in
  write_all fd "GET / HTTP/1.0\r\n\r\n";
  expect_error "garbage prefix" fd "oversized_frame";
  expect_eof "garbage prefix" fd;
  Unix.close fd;

  (* 2. An honest frame over the size limit (20 MiB > the 16 MiB
     default).  The daemon drains it to stay in sync: same structured
     error, but the connection keeps working. *)
  let fd = connect socket in
  let mb = String.make (1024 * 1024) 'x' in
  send_frame fd (String.concat "" (List.init 20 (fun _ -> mb)));
  expect_error "oversized frame" fd "oversized_frame";
  ping "oversized frame" fd;
  Unix.close fd;

  (* 3. A frame that is not JSON. *)
  let fd = connect socket in
  send_frame fd "{this is not json";
  expect_error "malformed json" fd "malformed_json";
  ping "malformed json" fd;

  (* 4. JSON that is not a request object / names no real op —
     still on the same connection. *)
  send_frame fd "[1,2,3]";
  expect_error "non-object request" fd "bad_request";
  send_frame fd {|{"op":"frobnicate"}|};
  expect_error "unknown op" fd "bad_request";
  send_frame fd {|{"op":"run","program":"no-such-kernel","machine":"harpertown"}|};
  expect_error "unknown program" fd "bad_request";
  ping "bad requests" fd;
  Unix.close fd;

  (* 5. Mid-frame disconnect: promise 100 bytes, deliver 10, vanish.
     The daemon must shrug this connection off and keep serving. *)
  let fd = connect socket in
  write_all fd "\x00\x00\x00\x64" (* length = 100 *);
  write_all fd "truncated!";
  Unix.close fd;
  let fd = connect socket in
  ping "after mid-frame disconnect" fd;
  Unix.close fd;

  (* 6. Resync under pipelining: an oversized frame with valid frames
     already queued behind it in the same burst.  The drain must
     consume exactly the declared bytes — every pipelined request is
     answered, in order, with strictly increasing request ids. *)
  let fd = connect socket in
  write_all fd
    (String.concat ""
       (frame (String.concat "" (List.init 20 (fun _ -> mb)))
       :: List.init 3 (fun _ -> frame {|{"op":"ping"}|})));
  expect_error "pipelined resync" fd "oversized_frame";
  let rids = List.init 3 (fun _ -> expect_pong "pipelined resync" fd) in
  ignore
    (List.fold_left
       (fun prev rid ->
         (match prev with
         | Some p when rid <= p ->
             fail "pipelined resync: request id %d not above %d" rid p
         | _ -> ());
         Some rid)
       None rids);
  Unix.close fd;

  print_endline "serve_probe: abuse ok"

(* --- wire mode -------------------------------------------------------- *)

let wire socket request =
  let id =
    J.Obj
      [
        ("probe", J.String "wire \"bytes\"\\ \n\t\001 \xc3\xa9");
        ("n", J.List [ J.Int (-1); J.Float 0.5; J.Null ]);
      ]
  in
  let request =
    match J.parse request with
    | Ok (J.Obj ms) ->
        J.to_string ~minify:true
          (J.Obj (("id", id) :: List.filter (fun (k, _) -> k <> "id") ms))
    | Ok _ | Error _ -> fail "wire: REQUEST is not a JSON object"
  in
  let fd = connect socket in
  let reply n =
    send_frame fd request;
    let payload = recv_frame fd in
    let j =
      match J.parse payload with
      | Ok j -> j
      | Error e -> fail "wire: reply %d is not JSON: %s" n e
    in
    let canonical = J.to_string ~minify:true j in
    if not (String.equal canonical payload) then
      fail "wire: reply %d is not canonical minified JSON (byte %d of %d)" n
        (first_diff canonical payload)
        (String.length payload);
    (match member "ok" j with
    | Some (J.Bool true) -> ()
    | _ ->
        fail "wire: reply %d is not ok: %s" n
          (String.sub payload 0 (min 200 (String.length payload))));
    if member "id" j <> Some id then fail "wire: reply %d lost the client id" n;
    let result =
      match member "result" j with
      | Some r -> J.to_string ~minify:true r
      | None -> fail "wire: reply %d carries no result" n
    in
    (result, member "cached" j = Some (J.Bool true))
  in
  let r1, c1 = reply 1 in
  let r2, c2 = reply 2 in
  Unix.close fd;
  if not (String.equal r1 r2) then
    fail "wire: the two replies' result bytes differ";
  Printf.printf "serve_probe: wire ok (cached: %b %b)\n" c1 c2

(* --- deadline mode ---------------------------------------------------- *)

(* The [Threads:] count of process [pid]; None without /proc. *)
let threads pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | l -> (
            match String.split_on_char ':' l with
            | [ "Threads"; n ] -> int_of_string_opt (String.trim n)
            | _ -> find ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) find

let timeouts fd =
  send_frame fd {|{"op":"stats"}|};
  match Option.bind (member "result" (recv_json fd)) (member "timeouts") with
  | Some (J.Int n) -> n
  | _ -> fail "deadline: stats reply carries no timeouts count"

let deadline socket pid =
  let rounds = 100 and conns = 2 in
  let request n =
    J.to_string ~minify:true
      (J.Obj
         [
           ("id", J.Int n);
           ("op", J.String "run");
           ("program", J.String "cg");
           ("machine", J.String "harpertown");
           ("scale", J.Int 64);
           ("nocache", J.Bool true);
           ("timeout_ms", J.Int 1);
         ])
  in
  let fds = Array.init conns (fun _ -> connect socket) in
  let before = timeouts fds.(0) in
  let idle = Option.bind pid threads in
  let peak = ref (Option.value idle ~default:0) in
  let t0 = Unix.gettimeofday () in
  for r = 0 to rounds - 1 do
    Array.iteri (fun c fd -> send_frame fd (request ((r * conns) + c))) fds;
    Array.iteri
      (fun c fd ->
        let n = (r * conns) + c in
        let j = recv_json fd in
        if member "id" j <> Some (J.Int n) then
          fail "deadline: reply %d does not echo its id" n;
        match Option.bind (member "error" j) (member "code") with
        | Some (J.String "timeout") -> ()
        | _ ->
            fail "deadline: reply %d is not a timeout: %s" n
              (J.to_string ~minify:true j))
      fds;
    Option.iter
      (fun n -> peak := max !peak n)
      (Option.bind pid threads)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let replies = rounds * conns in
  if wall >= 20. then
    fail "deadline: %d timed-out replies took %.1f s (bound 20 s)" replies wall;
  let grew = timeouts fds.(0) - before in
  if grew <> replies then
    fail "deadline: stats.timeouts grew by %d, not %d" grew replies;
  (match idle with
  | Some n when !peak > n ->
      fail "deadline: daemon threads rose from %d to %d" n !peak
  | _ -> ());
  Array.iter Unix.close fds;
  Printf.printf "serve_probe: deadline ok (%d timeouts in %.2f s, threads %s)\n"
    replies wall
    (match idle with
    | Some n -> Printf.sprintf "%d idle, %d peak" n !peak
    | None -> "not checked")

(* --- deep mode -------------------------------------------------------- *)

let deep socket =
  let depth = 200_000 in
  let payload = String.make depth '[' ^ String.make depth ']' in
  for i = 1 to 3 do
    let fd = connect socket in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
    send_frame fd payload;
    (match expect_error (Printf.sprintf "deep frame %d" i) fd "internal" with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        fail "deep frame %d: no reply within 5 s" i
    | exception (Eof | Unix.Unix_error _) ->
        fail "deep frame %d: the connection closed without a reply" i);
    Unix.close fd
  done;
  let fd = connect socket in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  (match ping "after deep frames" fd with
  | () -> ()
  | exception (Eof | Unix.Unix_error _) ->
      fail "after deep frames: no pong within 5 s");
  Unix.close fd;
  print_endline "serve_probe: deep ok"

let deep_id socket =
  let depth = 30_000 in
  let id = String.make depth '[' ^ String.make depth ']' in
  let fd = connect socket in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  send_frame fd (Printf.sprintf {|{"op":"ping","id":%s}|} id);
  let reply =
    match recv_json fd with
    | j -> j
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        fail "deep id: no reply within 5 s"
    | exception (Eof | Unix.Unix_error _) ->
        fail "deep id: the connection closed without a reply"
  in
  (match
     ( Option.map (member "pong") (member "result" reply),
       Option.map (J.to_string ~minify:true) (member "id" reply) )
   with
  | Some (Some (J.Bool true)), Some echoed when echoed = id -> ()
  | _ -> fail "deep id: the reply is not a pong echoing the id");
  (match ping "after the deep id" fd with
  | () -> ()
  | exception (Eof | Unix.Unix_error _) ->
      fail "after the deep id: no pong within 5 s");
  Unix.close fd;
  print_endline "serve_probe: deep-id ok"

(* --- compare mode ----------------------------------------------------- *)

let volatile = [ "timings_seconds"; "telemetry" ]

let rec strip j =
  match j with
  | J.Obj members ->
      J.Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k volatile then None else Some (k, strip v))
           members)
  | J.List l -> J.List (List.map strip l)
  | _ -> j

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let compare_files a b =
  let ja = J.to_string ~minify:true (strip (load a)) in
  let jb = J.to_string ~minify:true (strip (load b)) in
  if String.equal ja jb then print_endline "serve_probe: compare ok"
  else
    let i = first_diff ja jb in
    fail "%s and %s differ beyond the volatile members (byte %d: %s vs %s)" a b
      i
      (String.sub ja i (min 40 (String.length ja - i)))
      (String.sub jb i (min 40 (String.length jb - i)))

let () =
  match Array.to_list Sys.argv with
  | [ _; "abuse"; socket ] -> abuse socket
  | [ _; "wire"; socket; request ] -> wire socket request
  | [ _; "deadline"; socket ] -> deadline socket None
  | [ _; "deadline"; socket; pid ] -> deadline socket (int_of_string_opt pid)
  | [ _; "deep"; socket ] -> deep socket
  | [ _; "deep-id"; socket ] -> deep_id socket
  | [ _; "compare"; a; b ] -> compare_files a b
  | _ ->
      prerr_endline
        "usage: serve_probe abuse SOCKET | wire SOCKET REQUEST | deadline \
         SOCKET [PID] | deep SOCKET | deep-id SOCKET | compare A.json B.json";
      exit 2
