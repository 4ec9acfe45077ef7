(* Tests for the serving layer: the compiled-plan cache's LRU
   accounting, byte bound and concurrency contract, the length-prefixed
   frame protocol, daemons served in-process, and a [ctamap serve]
   process driven over its socket (served answers, hostile input, reply
   tiers, deadlines, a small stack and the observability surfaces). *)

open Ctam_serve
module J = Ctam_util.Json
module Parallel = Ctam_util.Parallel
module Space = Ctam_tune.Space

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_keys = Alcotest.(check (list string))

module H = Harness

let v s = J.Obj [ ("payload", J.String s) ]

(* What the plan cache holds and returns for a value: its minified
   text, the bytes a reply carries. *)
let text j = J.to_string ~minify:true j
let size j = String.length (text j)

(* --- Plan_cache ------------------------------------------------------- *)

let test_lru_eviction_order () =
  let c = Plan_cache.create ~max_entries:3 () in
  Plan_cache.add c "k1" (v "1");
  Plan_cache.add c "k2" (v "2");
  Plan_cache.add c "k3" (v "3");
  check_keys "insertion order" [ "k3"; "k2"; "k1" ]
    (Plan_cache.keys_hot_to_cold c);
  (* A hit promotes. *)
  check_bool "hit" true (Plan_cache.find c "k1" = Some (text (v "1")));
  check_keys "promoted" [ "k1"; "k3"; "k2" ] (Plan_cache.keys_hot_to_cold c);
  (* A fourth insert evicts the coldest — k2, not the oldest k1. *)
  Plan_cache.add c "k4" (v "4");
  check_keys "evicted the coldest" [ "k4"; "k1"; "k3" ]
    (Plan_cache.keys_hot_to_cold c);
  check_bool "evicted key misses" true (Plan_cache.find c "k2" = None);
  check_bool "survivor hits" true
    (Plan_cache.find c "k3" = Some (text (v "3")));
  (* Re-adding an existing key refreshes in place, no growth. *)
  Plan_cache.add c "k4" (v "4'");
  check_int "refresh does not grow" 3 (Plan_cache.resident_entries c);
  check_bool "refresh replaces the value" true
    (Plan_cache.find c "k4" = Some (text (v "4'")))

let test_byte_bound () =
  let unit_bytes = size (v "x") in
  let c = Plan_cache.create ~max_entries:1000 ~max_bytes:(3 * unit_bytes) () in
  List.iter (fun k -> Plan_cache.add c k (v "x")) [ "a"; "b"; "c" ];
  check_int "at the bound" (3 * unit_bytes) (Plan_cache.resident_bytes c);
  Plan_cache.add c "d" (v "x");
  check_int "bytes stay bounded" (3 * unit_bytes) (Plan_cache.resident_bytes c);
  check_keys "coldest entry paid for it" [ "d"; "c"; "b" ]
    (Plan_cache.keys_hot_to_cold c);
  (* A value bigger than the whole bound is still admitted — a cache
     that cannot hold its largest value would re-miss it forever — and
     evicts everything else. *)
  let huge = v (String.make (4 * unit_bytes) 'y') in
  Plan_cache.add c "huge" huge;
  check_keys "oversized value admitted alone" [ "huge" ]
    (Plan_cache.keys_hot_to_cold c);
  check_int "its bytes are accounted" (size huge) (Plan_cache.resident_bytes c);
  check_bool "and it hits" true (Plan_cache.find c "huge" = Some (text huge))

(* Two domains hammer overlapping keys through a memory tier bounded
   well below the key-set size, forcing constant eviction and disk
   reloads.  The contract: every find returns either a miss or exactly
   the value stored under that key — never a torn or foreign one. *)
let test_concurrent_hit_or_miss () =
  H.with_temp_dir @@ fun tmp ->
  let dir = Filename.concat tmp "cache" in
  let c = Plan_cache.create ~dir ~max_entries:3 () in
  let nkeys = 8 in
  let key i = Printf.sprintf "key-%d" (i mod nkeys) in
  let value i =
    J.Obj [ ("k", J.String (key i)); ("n", J.Int (i mod nkeys)) ]
  in
  let wrong = Atomic.make 0 in
  Parallel.iter ~domains:2
    (fun seed ->
      for i = 0 to 499 do
        let k = (i * (seed + 3)) + seed in
        if (i + seed) mod 3 = 0 then Plan_cache.add c (key k) (value k)
        else
          match Plan_cache.find c (key k) with
          | None -> ()
          | Some got ->
              if got <> text (value k) then Atomic.incr wrong
      done)
    [ 0; 1 ];
  check_int "only ever a miss or the stored value" 0 (Atomic.get wrong);
  (* The persistent tier holds every key; a fresh cache over the same
     directory must serve them all from disk. *)
  let c2 = Plan_cache.create ~dir ~max_entries:nkeys () in
  for i = 0 to nkeys - 1 do
    check_bool
      (Printf.sprintf "fresh cache reloads %s" (key i))
      true
      (Plan_cache.find c2 (key i) = Some (text (value i)))
  done

(* --- Protocol --------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair @@ fun a b ->
  (* A frame larger than any socket buffer: the writer runs in its own
     domain so write/read can overlap without deadlocking the test. *)
  let j =
    J.Obj
      [
        ("op", J.String "ping");
        ("blob", J.String (String.make 300_000 'x'));
        ("n", J.Int 42);
      ]
  in
  let w = Domain.spawn (fun () -> Protocol.write_json a j) in
  (match Protocol.read_frame b with
  | Ok payload -> check_bool "round-trip" true (J.parse payload = Ok j)
  | Error _ -> Alcotest.fail "read_frame failed on a valid frame");
  Domain.join w;
  (* Back-to-back frames stay framed. *)
  List.iter (fun i -> Protocol.write_json a (J.Int i)) [ 1; 2; 3 ];
  List.iter
    (fun i ->
      match Protocol.read_frame b with
      | Ok p -> check_bool "in order" true (p = string_of_int i)
      | Error _ -> Alcotest.fail "read_frame failed mid-stream")
    [ 1; 2; 3 ]

let test_read_error_classification () =
  (* Honest oversized frame: declared length over the limit but under
     the drain ceiling — refused, drained, connection still framed. *)
  with_socketpair (fun a b ->
      let w = Domain.spawn (fun () -> Protocol.write_frame a (String.make 64 'y')) in
      (match Protocol.read_frame ~max_bytes:16 b with
      | Error (Protocol.Oversized { length = 64; in_sync = true }) -> ()
      | _ -> Alcotest.fail "expected a drained Oversized");
      Domain.join w;
      Protocol.write_frame a "ok";
      match Protocol.read_frame ~max_bytes:16 b with
      | Ok "ok" -> ()
      | _ -> Alcotest.fail "stream lost sync after a drained frame");
  (* Garbage prefix: the length bytes of a client that never spoke the
     protocol decode past the drain ceiling — unrecoverable. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "GET / HTTP/1.0\r\n" 0 16);
      match Protocol.read_frame b with
      | Error (Protocol.Oversized { in_sync = false; _ }) -> ()
      | _ -> Alcotest.fail "expected an out-of-sync Oversized");
  (* Peer gone before any frame, and gone mid-frame: both are Closed. *)
  with_socketpair (fun a b ->
      Unix.close a;
      match Protocol.read_frame b with
      | Error Protocol.Closed -> ()
      | _ -> Alcotest.fail "expected Closed on EOF");
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\x00\x00\x00\x64truncated!" 0 14);
      Unix.close a;
      match Protocol.read_frame b with
      | Error Protocol.Closed -> ()
      | _ -> Alcotest.fail "expected Closed on a truncated frame");
  (* An idle receive timeout consults on_idle; `Stop abandons the
     wait as Stopped (how workers notice shutdown). *)
  with_socketpair (fun _ b ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.05;
      match Protocol.read_frame ~on_idle:(fun () -> `Stop) b with
      | Error Protocol.Stopped -> ()
      | _ -> Alcotest.fail "expected Stopped from on_idle")

let test_response_shapes () =
  let ok = Protocol.ok_response ~id:(J.Int 7) ~cached:true (v "r") in
  check_bool "ok" true (Protocol.response_ok ok);
  check_bool "cached" true (Protocol.response_cached ok);
  check_bool "result" true (Protocol.response_result ok = Some (v "r"));
  check_bool "no error member" true (Protocol.response_error ok = None);
  let err = Protocol.error_response ~code:"bad_request" "nope" in
  check_bool "not ok" true (not (Protocol.response_ok err));
  check_bool "error carried" true
    (Protocol.response_error err = Some ("bad_request", "nope"));
  (* Accessors are total on non-objects. *)
  check_bool "non-object is not ok" true (not (Protocol.response_ok J.Null));
  check_bool "non-object has no error" true
    (Protocol.response_error (J.List []) = None);
  (* The daemon-minted request id rides on both reply shapes. *)
  let ok = Protocol.ok_response ~request_id:41 (v "r") in
  check_bool "request id on ok" true (Protocol.response_request_id ok = Some 41);
  let err = Protocol.error_response ~request_id:42 ~code:"timeout" "late" in
  check_bool "request id on error" true
    (Protocol.response_request_id err = Some 42);
  check_bool "request id absent by default" true
    (Protocol.response_request_id (Protocol.ok_response (v "r")) = None)

(* A cached plan is replied as its stored text with the envelope
   spliced around it; the pieces must be the canonical encoding of the
   whole reply, whatever the client's id and the result hold. *)
let prop_ok_pieces_canonical =
  QCheck.Test.make ~name:"spliced ok reply is the canonical encoding"
    ~count:300
    (QCheck.make
       ~print:(fun (id, rid, cached, result) ->
         Printf.sprintf "id=%s request_id=%s cached=%b result=%s" (text id)
           (match rid with None -> "-" | Some r -> string_of_int r)
           cached (text result))
       QCheck.Gen.(
         quad Json_gen.gen_value
           (opt Json_gen.gen_int)
           bool Json_gen.gen_value))
    (fun (id, request_id, cached, result) ->
      String.concat ""
        (Protocol.ok_pieces ~id ?request_id ~cached (text result))
      = text (Protocol.ok_response ~id ?request_id ~cached result))

(* The same splice writes a journal record around the wire payload. *)
let prop_splice_canonical =
  QCheck.Test.make ~name:"splice is the canonical encoding" ~count:300
    (QCheck.make
       ~print:(fun (ms, v) -> text (J.Obj ms) ^ " + " ^ text v)
       QCheck.Gen.(
         pair
           (list_size (int_range 0 4)
              (pair Json_gen.gen_str Json_gen.gen_value))
           Json_gen.gen_value))
    (fun (members, v) ->
      String.concat "" (Protocol.splice members "response" [ text v ])
      = text (J.Obj (members @ [ ("response", v) ])))

(* The resync contract under pipelining: an oversized frame with valid
   frames already queued behind it.  The drain must consume exactly
   the declared length, answering every queued frame afterwards. *)
let test_resync_pipelined () =
  with_socketpair @@ fun a b ->
  let w =
    Domain.spawn (fun () ->
        Protocol.write_frame a (String.make 4096 'z');
        List.iter (fun i -> Protocol.write_json a (J.Int i)) [ 1; 2; 3 ])
  in
  (match Protocol.read_frame ~max_bytes:64 b with
  | Error (Protocol.Oversized { length = 4096; in_sync = true }) -> ()
  | _ -> Alcotest.fail "expected a drained Oversized");
  List.iter
    (fun i ->
      match Protocol.read_frame ~max_bytes:64 b with
      | Ok p -> check_bool "pipelined frame answered in order" true (p = string_of_int i)
      | Error _ -> Alcotest.fail "lost a pipelined frame after resync")
    [ 1; 2; 3 ];
  Domain.join w

(* --- framing totality --------------------------------------------------- *)

(* Every read of [read_frame ~max_bytes:64] over any byte stream is a
   payload of at most 64 bytes or an error constructor, never an
   exception, and the reads end at [Closed] or at an [Oversized] out of
   sync.  [frames_model] says which, frame by frame, from the bytes
   alone.  Streams stay far below a socket buffer, so writing one whole
   before reading cannot block. *)

let frame_limit = 64

let header n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF))

let frames_model s =
  let len = String.length s in
  let rec go pos acc =
    let fin e = List.rev (Error e :: acc) in
    if len - pos < 4 then fin Protocol.Closed
    else
      let n = Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF in
      let body = pos + 4 in
      if n > frame_limit then
        if n <= Protocol.drain_ceiling && len - body >= n then
          go (body + n)
            (Error (Protocol.Oversized { length = n; in_sync = true }) :: acc)
        else fin (Protocol.Oversized { length = n; in_sync = false })
      else if len - body >= n then
        go (body + n) (Ok (String.sub s body n) :: acc)
      else fin Protocol.Closed
  in
  go 0 []

let read_frames s =
  with_socketpair @@ fun a b ->
  let rec put off =
    if off < String.length s then
      put (off + Unix.write_substring a s off (String.length s - off))
  in
  put 0;
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  (* Each read that does not end the loop takes at least 4 bytes. *)
  let rec go acc budget =
    if budget < 0 then
      QCheck.Test.fail_reportf "no end after %d reads" (List.length acc)
    else
      match Protocol.read_frame ~max_bytes:frame_limit b with
      | Error (Protocol.Closed | Protocol.Oversized { in_sync = false; _ })
        as r ->
          List.rev (r :: acc)
      | r -> go (r :: acc) (budget - 1)
  in
  go [] (String.length s / 4)

let gen_stream =
  let open QCheck.Gen in
  let frame n = map (fun body -> header n ^ body) (string_size (return n)) in
  let limits =
    [ frame_limit; frame_limit + 1; 4096; Protocol.drain_ceiling;
      Protocol.drain_ceiling + 1; 0xFFFFFFFF ]
  in
  let piece =
    frequency
      [
        (4, int_range 0 frame_limit >>= frame);
        (2, oneofl [ frame_limit + 1; 200; 1000 ] >>= frame);
        (* a declared length near a limit, then fewer bytes than it says *)
        ( 2,
          map2 (fun n body -> header n ^ body) (oneofl limits)
            (string_size (int_range 0 (frame_limit + 2))) );
        ( 1,
          map2 (fun n k -> String.sub (header n) 0 k) (oneofl limits)
            (int_range 1 3) );
        (1, string_size (int_range 1 16));
      ]
  in
  map (String.concat "") (list_size (int_range 0 8) piece)

let prop_framing_total =
  QCheck.Test.make ~name:"framing is total over byte streams" ~count:500
    (QCheck.make ~print:String.escaped gen_stream)
    (fun s ->
      let reads = read_frames s in
      List.for_all
        (function Ok p -> String.length p <= frame_limit | Error _ -> true)
        reads
      && reads = frames_model s)

let prop_frames_in_order =
  QCheck.Test.make ~name:"valid frames read back in order" ~count:200
    (QCheck.make
       ~print:(fun ps -> String.concat " | " (List.map String.escaped ps))
       QCheck.Gen.(
         list_size (int_range 0 20) (string_size (int_range 0 frame_limit))))
    (fun payloads ->
      let frame p = header (String.length p) ^ p in
      read_frames (String.concat "" (List.map frame payloads))
      = List.map Result.ok payloads @ [ Error Protocol.Closed ])

(* --- Reqctx ----------------------------------------------------------- *)

let test_reqctx () =
  let conn = Reqctx.mint_conn () in
  let c1 = Reqctx.create ~conn () in
  let c2 = Reqctx.create ~conn () in
  check_bool "ids monotone" true (c2.Reqctx.id > c1.Reqctx.id);
  check_bool "fresh status" true (c1.Reqctx.status = "ok");
  (* Error classification: "timeout" is its own status. *)
  Reqctx.error c1 "internal";
  check_bool "error status" true (c1.Reqctx.status = "error");
  Reqctx.error c2 "timeout";
  check_bool "timeout status" true (c2.Reqctx.status = "timeout");
  check_bool "code kept" true (c2.Reqctx.error_code = Some "timeout");
  (* Cache outcomes have stable journal ids. *)
  check_bool "cache ids" true
    (List.map Reqctx.cache_id
       [ Reqctx.Memory; Reqctx.Disk; Reqctx.Miss; Reqctx.Bypass; Reqctx.None_ ]
    = [ "memory"; "disk"; "miss"; "bypass"; "none" ]);
  check_bool "finish returns elapsed" true (Reqctx.finish c1 [] >= 0.)

(* Request identity lands on every log line emitted inside the scope,
   through arbitrarily deep calls, without threading an argument. *)
let test_reqctx_logging () =
  let module Log = Ctam_telemetry.Log in
  let seen = ref [] in
  let saved_level = Log.current_level () in
  Log.set_level (Some Log.Info);
  Log.set_format `Json;
  Log.set_sink (fun line -> seen := line :: !seen);
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink prerr_endline;
      Log.set_format `Human;
      Log.set_level saved_level)
    (fun () ->
      let ctx = Reqctx.create ~conn:0 () in
      Reqctx.with_logging ctx (fun () ->
          Log.info ~src:"test" (fun () -> "inside"));
      Log.info ~src:"test" (fun () -> "outside");
      match !seen with
      | [ outside; inside ] ->
          let needle = Printf.sprintf "\"request_id\":%d" ctx.Reqctx.id in
          let contains line =
            let nl = String.length needle and ll = String.length line in
            let rec go i =
              i + nl <= ll && (String.sub line i nl = needle || go (i + 1))
            in
            go 0
          in
          check_bool "request_id inside the scope" true (contains inside);
          check_bool "request_id gone outside" true (not (contains outside))
      | _ -> Alcotest.fail "expected exactly two log lines")

(* --- Journal ---------------------------------------------------------- *)

let test_journal_record_and_rotation () =
  H.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let ctx = Reqctx.create ~conn:7 () in
  ctx.Reqctx.op <- "run";
  let record_json =
    Journal.request_json ~ctx ~spans:[ ("compile", 0.001) ]
      ~key:(Some "some-cache-key") ~bytes_in:10
      ~bytes_out:20 ~total_seconds:0.005
      ~request:(J.Obj [ ("op", J.String "run") ])
      ~response:(Protocol.ok_response ~request_id:ctx.Reqctx.id (v "r"))
  in
  (* Bound the file at three record lines so the eleventh write has
     rotated at least once. *)
  let line_bytes = String.length (J.to_string ~minify:true record_json) + 1 in
  let max_bytes = 3 * line_bytes in
  let jn = Journal.create ~max_bytes path in
  let record () = Journal.record jn record_json in
  record ();
  check_int "one record" 1 (Journal.records jn);
  (* Each line is one parseable object carrying the versioned schema. *)
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  (match J.parse line with
  | Ok (J.Obj _ as r) ->
      let m name = match J.member name r with Some x -> x | None -> J.Null in
      check_bool "schema version" true (m "ctam_journal_version" = J.Int 1);
      check_bool "request id" true
        (m "request_id" = J.Int ctx.Reqctx.id);
      check_bool "op" true (m "op" = J.String "run");
      check_bool "key is hashed" true
        (m "key" = J.String (Ctam_util.Diskstore.hash "some-cache-key"));
      check_bool "status" true (m "status" = J.String "ok");
      check_bool "total micros" true (m "total_us" = J.Int 5000);
      check_bool "bytes accounted" true
        (m "bytes_in" = J.Int 10 && m "bytes_out" = J.Int 20);
      check_bool "request embedded" true (m "request" <> J.Null);
      check_bool "response embedded" true (m "response" <> J.Null)
  | _ -> Alcotest.fail "journal line is not a JSON object");
  (* Size rotation: pushing past max_bytes renames to .1 and restarts. *)
  for _ = 1 to 10 do record () done;
  Journal.close jn;
  check_bool "rotated file exists" true (Sys.file_exists (path ^ ".1"));
  let stat = Unix.stat path in
  check_bool "live file restarted under the bound" true
    (stat.Unix.st_size <= max_bytes);
  (match Journal.stats_json jn with
  | J.Obj _ as s ->
      (match J.member "rotations" s with
      | Some (J.Int r) -> check_bool "rotations counted" true (r >= 1)
      | _ -> Alcotest.fail "stats carry no rotations")
  | _ -> Alcotest.fail "stats not an object")

(* --- Slowlog ---------------------------------------------------------- *)

let test_slowlog () =
  let sl = Slowlog.create ~threshold_ms:10. ~capacity:3 () in
  let note ?(op = "run") ms =
    let ctx = Reqctx.create ~conn:0 () in
    ctx.Reqctx.op <- op;
    Slowlog.note sl ctx ~spans:[] ~total_seconds:(ms /. 1000.)
  in
  note 5.;
  check_int "below threshold not recorded" 0 (Slowlog.length sl);
  note 10.;
  note ~op:"tune" 50.;
  check_int "recorded" 2 (Slowlog.length sl);
  note 20.;
  note 30.;
  (* Capacity 3: the 10 ms entry fell off; newest first. *)
  check_int "ring bounded" 3 (Slowlog.length sl);
  check_int "total ever recorded" 4 (Slowlog.recorded sl);
  let ms_of e =
    match J.member "ms" e with Some (J.Float f) -> f | _ -> -1.
  in
  check_bool "newest first" true
    (List.map ms_of (Slowlog.entries sl) = [ 30.; 20.; 50. ]);
  check_bool "limit honoured" true
    (List.map ms_of (Slowlog.entries ~limit:1 sl) = [ 30. ]);
  match Slowlog.to_json ~limit:2 sl with
  | J.Obj _ as j -> (
      match (J.member "recorded" j, J.member "entries" j) with
      | Some (J.Int 4), Some (J.List [ _; _ ]) -> ()
      | _ -> Alcotest.fail "bad slowlog json shape")
  | _ -> Alcotest.fail "slowlog json not an object"

(* --- Plan_cache lookup tiers ------------------------------------------ *)

let test_lookup_tiers () =
  H.with_temp_dir @@ fun tmp ->
  let dir = Filename.concat tmp "cache" in
  let c = Plan_cache.create ~dir ~max_entries:1 () in
  check_bool "absent" true (Plan_cache.lookup c "a" = Plan_cache.Absent);
  Plan_cache.add c "a" (v "1");
  check_bool "memory tier" true
    (Plan_cache.lookup c "a" = Plan_cache.Memory (text (v "1")));
  (* Evict from memory (entry bound 1); the disk tier answers and the
     entry is promoted back. *)
  Plan_cache.add c "b" (v "2");
  check_bool "disk tier" true
    (Plan_cache.lookup c "a" = Plan_cache.Disk (text (v "1")));
  check_bool "promoted back to memory" true
    (Plan_cache.lookup c "a" = Plan_cache.Memory (text (v "1")))

(* --- trace requests ---------------------------------------------------- *)

let trace_req ?policy text =
  J.Obj
    ([
       ("op", J.String "trace");
       ("machine", J.String "dunnington");
       ("scale", J.Int 16);
       ("cores", J.Int 2);
       ("trace_text", J.String text);
     ]
    @ match policy with None -> [] | Some p -> [ ("policy", J.String p) ])

let test_trace_request_parse () =
  let good = " L 0x1000,8\n S 0x1040,8\n M 0x1080,4\n" in
  let parsed ?policy text =
    match Request.parse_trace (trace_req ?policy text) with
    | Ok tr -> tr
    | Error e -> Alcotest.fail e
  in
  (* Policy reaches the machine, and the content-hash key sees it —
     while an explicit lru spec keeps the pre-policy key (warm caches
     survive the upgrade). *)
  let k_default = Request.trace_key (parsed good) in
  let k_lru = Request.trace_key (parsed ~policy:"lru" good) in
  let k_plru = Request.trace_key (parsed ~policy:"L1=plru" good) in
  Alcotest.(check string) "explicit lru keeps the key" k_default k_lru;
  check_bool "policy in the key" true (k_plru <> k_default);
  check_bool "trace text in the key" true
    (Request.trace_key (parsed (good ^ " L 0x2000,4\n")) <> k_default);
  (* Executing the parsed request yields the simtrace report. *)
  let report, _spans = Request.execute_trace (parsed ~policy:"L1=plru" good) in
  (match J.member "schema" report with
  | Some (J.String "ctam-simtrace-v1") -> ()
  | _ -> Alcotest.fail "trace response is not a simtrace report");
  (* Strict-mode errors surface at PARSE time, with the position. *)
  (match Request.parse_trace (trace_req " L 0x10,4\n X bad\n") with
  | Error msg ->
      check_bool "position in the error" true
        (Astring.String.is_infix ~affix:"line 2" msg)
  | Ok _ -> Alcotest.fail "malformed trace accepted");
  (* ... unless the request opted into lossy mode. *)
  match
    Request.parse_trace
      (match trace_req " L 0x10,4\n X bad\n" with
      | J.Obj ms -> J.Obj (ms @ [ ("lossy", J.Bool true) ])
      | j -> j)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("lossy trace rejected: " ^ e)

(* Totality of the request parser: over generated documents for every
   plan op — builtin or junk programs, presets or small topology
   texts, integer members at the edges — [parse] and [parse_trace]
   answer [Ok]/[Error] within a second, never raise.  [scale] 0 once
   raised Division_by_zero out of [parse]. *)
let gen_request =
  let open QCheck.Gen in
  let some_of names =
    map
      (fun s -> J.String s)
      (frequency [ (4, oneofl names); (1, Json_gen.gen_str) ])
  in
  let edge_int =
    map
      (fun i -> J.Int i)
      (frequency
         [
           (2, oneofl [ min_int; -1; 0; 1; max_int ]);
           (3, map (fun k -> 1 lsl k) (int_range 0 62));
         ])
  in
  let topology =
    let cache name level size assoc line kids =
      Printf.sprintf
        "(cache %S (level %d) (size %s) (assoc %d) (line %d) (latency 3) %s)"
        name level size assoc line kids
    in
    map
      (fun (size, (assoc, line), cores) ->
        Printf.sprintf "(machine \"T\" (clock 2.0) (mem 100) %s)"
          (cache "L2" 2 "1M" 16 64
             (cache "L1" 1 size assoc line
                (Printf.sprintf "(cores %d)" cores))))
      (triple
         (oneofl [ "32K"; "64"; "0"; "-1"; "1G"; "8" ])
         (pair (oneofl [ 8; 1; 0; -1 ]) (oneofl [ 64; 1; 0; -64 ]))
         (oneofl [ 1; 2; 4; 8; 65_537 ]))
  in
  let trace_text =
    map (String.concat "\n")
      (list_size (int_range 0 4)
         (oneofl
            [ " L 0x1000,8"; " S 0x40,4"; "I  0x0,2"; "1: M 0x10,8 @5";
              " L 0x3ffffffffffffff0,100"; "junk" ]))
  in
  let junk = map (fun v -> [ v ]) (pair Json_gen.gen_str Json_gen.gen_value) in
  let one name value = map (fun v -> [ (name, v) ]) value in
  (* The members a parse must get past to reach the deep checks are
     nearly always present and well typed. *)
  let required =
    [
      frequency
        [
          (9, one "op" (some_of [ "map"; "run"; "tune"; "check"; "trace" ]));
          (1, junk);
        ];
      frequency
        [
          ( 6,
            one "program"
              (some_of
                 (List.map
                    (fun k -> k.Ctam_workloads.Kernel.name)
                    Ctam_workloads.Suite.all)) );
          ( 3,
            one "source"
              (some_of
                 [
                   "program p {";
                   "";
                   "program p; double A[64];\n\
                    parallel for (i = 0; i < 64; i++) A[i] = A[i];";
                 ]) );
          (1, junk);
        ];
      frequency
        [
          ( 6,
            one "machine"
              (some_of
                 [ "harpertown"; "nehalem"; "dunnington"; "arch-i"; "arch-ii" ])
          );
          (3, one "topology" (map (fun t -> J.String t) topology));
          (1, junk);
        ];
      frequency
        [ (4, one "trace_text" (map (fun t -> J.String t) trace_text)); (1, junk) ];
    ]
  in
  let optional =
    [
      ( "scheme",
        some_of [ "base"; "base+"; "local"; "topology-aware"; "combined" ] );
      ("policy", some_of [ "lru"; "L1=plru"; "L3=qlru"; "random:7" ]);
      ("strategy", some_of [ "grid"; "descent"; "halving" ]);
      ("interleave", some_of [ "round-robin"; "tagged" ]);
      ("alpha", map (fun f -> J.Float f) Json_gen.gen_float);
      ("balance", edge_int);
      ( "params",
        oneof
          [
            map Space.to_json
              (map
                 (fun (scheme, tile_edge) ->
                   { (Space.default_point ~scheme ()) with Space.tile_edge })
                 (pair (oneofl Ctam_core.Mapping.all_schemes)
                    (opt (oneofl [ 0; 8; max_int ]))));
            Json_gen.gen_value;
          ] );
    ]
    @ List.map
        (fun name -> (name, edge_int))
        [ "scale"; "size"; "block"; "sample_sets"; "budget"; "timeout_ms";
          "trace_window"; "tile_edge"; "cores"; "fold_bits"; "split" ]
    @ List.map
        (fun name -> (name, map (fun b -> J.Bool b) bool))
        [ "stream"; "check"; "trace"; "instr"; "lossy"; "rebase" ]
  in
  let member (name, value) =
    frequency
      [
        (35, return []);
        (4, one name value);
        (1, one name Json_gen.gen_value);
      ]
  in
  map
    (fun ms -> J.Obj (List.concat ms))
    (flatten_l (required @ List.map member optional))

let prop_parse_total =
  QCheck.Test.make ~name:"request parsing is total and fast" ~count:1000
    (QCheck.make ~print:text gen_request)
    (fun doc ->
      let within_1s name f =
        let t0 = Unix.gettimeofday () in
        (match f doc with
        | Ok _ | Error _ -> ()
        | exception e ->
            QCheck.Test.fail_reportf "%s raised %s" name
              (Printexc.to_string e));
        let dt = Unix.gettimeofday () -. t0 in
        if dt > 1. then QCheck.Test.fail_reportf "%s took %.2f s" name dt
      in
      within_1s "parse" (fun d -> Result.map ignore (Request.parse d));
      within_1s "parse_trace" (fun d ->
          Result.map ignore (Request.parse_trace d));
      true)

(* One request to a live daemon, giving up after 10 s: a daemon that
   died mid-request leaves the connection open but silent. *)
let ask ~socket j =
  let fd = Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.1;
      let deadline = Unix.gettimeofday () +. 10. in
      let on_idle () =
        if Unix.gettimeofday () > deadline then `Stop else `Continue
      in
      Protocol.write_json fd j;
      match Protocol.read_frame ~on_idle fd with
      | Ok payload -> (
          match J.parse payload with
          | Ok reply -> reply
          | Error e -> Alcotest.fail e)
      | Error _ -> Alcotest.fail "no reply from the daemon")

(* Run [f socket] against a daemon served in-process on its own
   domain, stopped and joined when [f] returns; returns the socket
   path. *)
let with_daemon ?(config = Server.default_config) name f =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ctam-serve-test-%d-%s.sock" (Unix.getpid ()) name)
  in
  let t = Server.create { config with Server.socket } in
  let daemon = Domain.spawn (fun () -> Server.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join daemon)
    (fun () -> f socket);
  socket

let with_member name v = function
  | J.Obj ms -> J.Obj (ms @ [ (name, v) ])
  | j -> j

(* A trace that breaks ingestion is one bad request, never the end of
   the daemon: an overflowing --split span once escaped as an
   exception and stopped it, leaving its socket file behind, and a
   span of 10^12 split lines was expanded at parse time, outside any
   timeout, wedging the worker. *)
let test_daemon_survives_bad_trace () =
  let socket =
    with_daemon ~config:{ Server.default_config with Server.workers = 1 }
      "bad-trace"
    @@ fun socket ->
    List.iter
      (fun (trace, split) ->
        let req =
          trace_req trace
          |> with_member "split" (J.Int split)
          |> with_member "timeout_ms" (J.Int 100)
        in
        (match Protocol.response_error (ask ~socket req) with
        | Some (code, msg) ->
            Alcotest.(check string) "error code" "bad_request" code;
            check_bool "names line 1" true
              (Astring.String.is_infix ~affix:"line 1" msg)
        | None -> Alcotest.fail "bad trace accepted");
        let ping = ask ~socket (J.Obj [ ("op", J.String "ping") ]) in
        check_bool "still answers ping" true (Protocol.response_ok ping))
      [ (" L 0x3ffffffffffffff0,100\n", 64); (" L 0,1000000000000\n", 1) ]
  in
  check_bool "socket removed on stop" false (Sys.file_exists socket)

(* A timed request stops at its deadline instead of running on behind
   its reply: this split trace asks for 1.3 G simulated accesses, so
   unless the work stops, a shutdown right after the [timeout] reply
   waits for it. *)
let test_deadline_stops_work () =
  let text = String.concat "" (List.init 20_000 (fun _ -> " L 0,65536\n")) in
  let req =
    trace_req text
    |> with_member "split" (J.Int 1)
    |> with_member "timeout_ms" (J.Int 100)
  in
  let stopped = ref 0. in
  let socket =
    with_daemon ~config:{ Server.default_config with Server.workers = 1 }
      "deadline"
    @@ fun socket ->
    (match Protocol.response_error (ask ~socket req) with
    | Some (code, _) -> Alcotest.(check string) "error code" "timeout" code
    | None -> Alcotest.fail "the split trace finished within 100 ms");
    ignore (ask ~socket (J.Obj [ ("op", J.String "shutdown") ]));
    (* [serve] removes the socket once every worker has returned. *)
    let t0 = Unix.gettimeofday () in
    while Sys.file_exists socket && Unix.gettimeofday () -. t0 < 5. do
      Unix.sleepf 0.01
    done;
    stopped := Unix.gettimeofday () -. t0
  in
  check_bool "serve returned within 5 s of shutdown" true (!stopped < 5.);
  check_bool "socket removed" false (Sys.file_exists socket)

(* Every input the resolver rejects is a bad request naming the
   member, never the end of a worker: the policy spec and sampling
   factor are checked against the machine, and every bound before
   anything is sized by it.  [scale] 0, [size] 0 and 10^12 trace cores
   once raised outside any handler and killed the only worker, so
   each case is followed by a ping. *)
let test_machine_checked_members () =
  let override extra = function
    | J.Obj ms ->
        J.Obj (List.filter (fun (k, _) -> not (List.mem_assoc k extra)) ms @ extra)
    | j -> j
  in
  let run extra =
    override extra
      (J.Obj
         [
           ("op", J.String "run");
           ("program", J.String "cg");
           ("machine", J.String "harpertown");
           ("scale", J.Int 64);
         ])
  in
  let trace extra = override extra (trace_req " L 0x1000,8\n") in
  let dsl =
    J.Obj
      [
        ("op", J.String "run");
        ("source", J.String "program p {");
        ("machine", J.String "harpertown");
      ]
  in
  ignore
    ( with_daemon ~config:{ Server.default_config with Server.workers = 1 }
        "checked"
    @@ fun socket ->
      List.iter
        (fun (what, req, affix) ->
          (match Protocol.response_error (ask ~socket req) with
          | Some (code, msg) ->
              Alcotest.(check string) (what ^ ": code") "bad_request" code;
              check_bool (what ^ ": names the problem") true
                (Astring.String.is_infix ~affix msg)
          | None -> Alcotest.fail (what ^ ": accepted"));
          let ping = ask ~socket (J.Obj [ ("op", J.String "ping") ]) in
          check_bool (what ^ ": still answers ping") true
            (Protocol.response_ok ping))
        [
          ("run L3 policy", run [ ("policy", J.String "L3=plru") ], "no L3");
          ( "run sample_sets",
            run [ ("sample_sets", J.Int 1024) ],
            "does not divide" );
          ("run sample_sets 3", run [ ("sample_sets", J.Int 3) ], "power of two");
          ( "trace L4 policy",
            trace [ ("policy", J.String "L4=plru") ],
            "no L4" );
          ( "trace sample_sets",
            trace [ ("sample_sets", J.Int (1 lsl 20)) ],
            "does not divide" );
          ("scale 0", run [ ("scale", J.Int 0) ], "scale");
          ("scale -3", run [ ("scale", J.Int (-3)) ], "scale");
          ("size 0", run [ ("size", J.Int 0) ], "size");
          ("size -5", run [ ("size", J.Int (-5)) ], "size");
          ( "trace cores 10^12",
            trace [ ("cores", J.Int 1_000_000_000_000) ],
            "cores" );
          ( "trace cores 100 on harpertown",
            trace [ ("machine", J.String "harpertown"); ("cores", J.Int 100) ],
            "cores" );
          ( "alpha -1 under base+",
            run [ ("scheme", J.String "base+"); ("alpha", J.Int (-1)) ],
            "alpha" );
          ( "balance 0 under base+",
            run [ ("scheme", J.String "base+"); ("balance", J.Int 0) ],
            "balance" );
          ( "tile_edge 0 under base+",
            run [ ("scheme", J.String "base+"); ("tile_edge", J.Int 0) ],
            "tile_edge" );
          ( "budget -1",
            run [ ("op", J.String "tune"); ("budget", J.Int (-1)) ],
            "budget" );
          ("DSL syntax error", dsl, "line 1");
        ] )

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Cold, warm-memory and disk-promoted replies to one request, read as
   raw frames: each is the canonical minified encoding of its own
   parse, all carry the same result bytes, and the journal records
   each wire payload byte for byte as its response member. *)
let test_daemon_replies_canonical () =
  H.with_temp_dir @@ fun dir ->
  let journal = Filename.concat dir "journal.jsonl" in
  let config =
    {
      Server.default_config with
      Server.workers = 1;
      cache_dir = Some (Filename.concat dir "cache");
      cache_entries = 1;
      journal_path = Some journal;
    }
  in
  let id =
    J.Obj
      [
        ("tag", J.String "a\"b\\c\n\001\xc3\xa9/");
        ("n", J.List [ J.Int (-7); J.Float 2.5; J.Null ]);
      ]
  in
  let request trace = trace_req trace |> with_member "id" id in
  let a = request " L 0x1000,8\n S 0x1040,8\n M 0x1080,4\n" in
  let b = request " L 0x2000,8\n" in
  let payloads = ref [] in
  ignore
    (with_daemon ~config "splice" @@ fun socket ->
     let fd = Client.connect socket in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         let send j =
           Protocol.write_json fd j;
           match Protocol.read_frame fd with
           | Ok payload -> payload
           | Error _ -> Alcotest.fail "no reply from the daemon"
         in
         (* cache_entries = 1: [b] evicts [a] from memory, so the third
            [a] is answered from disk. *)
         let cold = send a in
         let warm = send a in
         ignore (send b);
         let disk = send a in
         payloads := [ ("miss", cold); ("memory", warm); ("disk", disk) ]));
  let parse s =
    match J.parse s with Ok j -> j | Error e -> Alcotest.fail e
  in
  let result_bytes =
    List.map
      (fun (tier, payload) ->
        let reply = parse payload in
        Alcotest.(check string) (tier ^ " reply is canonical") (text reply)
          payload;
        check_bool (tier ^ " reply ok") true (Protocol.response_ok reply);
        check_bool (tier ^ " cached flag") (tier <> "miss")
          (Protocol.response_cached reply);
        check_bool (tier ^ " echoes the id") true
          (J.member "id" reply = Some id);
        match Protocol.response_result reply with
        | Some r -> text r
        | None -> Alcotest.fail (tier ^ " reply has no result"))
      !payloads
  in
  (match result_bytes with
  | r :: rest ->
      List.iter (Alcotest.(check string) "same result bytes" r) rest
  | [] -> Alcotest.fail "no replies");
  (* The journal holds one line per request, in order; [a]'s carry
     the wire payloads as their response members, and the cache
     outcome names the tier that answered. *)
  let lines = read_lines journal in
  check_int "one journal line per request" 4 (List.length lines);
  List.iter2
    (fun line (tier, payload) ->
      check_bool (tier ^ ": journal response is the wire payload") true
        (String.ends_with ~suffix:({|,"response":|} ^ payload ^ "}") line);
      check_bool (tier ^ ": journal cache outcome") true
        (J.member "cache" (parse line) = Some (J.String tier)))
    [ List.nth lines 0; List.nth lines 1; List.nth lines 3 ]
    !payloads

(* --- span names --------------------------------------------------------- *)

let cg_req op extra =
  J.Obj
    ([
       ("op", J.String op);
       ("program", J.String "cg");
       ("machine", J.String "harpertown");
       ("scale", J.Int 64);
     ]
    @ extra)

(* The named timings an execution reports, in completion order: the
   daemon publishes them as its compile/simulate/verify/search spans. *)
let test_execute_span_names () =
  let names req =
    match Request.parse req with
    | Ok r -> List.map fst (snd (Request.execute r))
    | Error e -> Alcotest.fail e
  in
  check_keys "map" [ "compile" ] (names (cg_req "map" []));
  check_keys "run" [ "compile"; "simulate" ] (names (cg_req "run" []));
  check_keys "check" [ "compile"; "verify" ] (names (cg_req "check" []));
  check_keys "tune" [ "search" ]
    (names (cg_req "tune" [ ("budget", J.Int 1) ]));
  (* A traced run's compiler track: one span per compile pass. *)
  (match Request.parse (cg_req "run" [ ("trace", J.Bool true) ]) with
  | Ok r -> (
      match J.member "trace" (fst (Request.execute r)) with
      | Some tr -> (
          match J.member "traceEvents" tr with
          | Some (J.List evs) ->
              check_keys "run trace compile track"
                [ "group"; "distribute"; "schedule"; "trace" ]
                (List.filter_map
                   (fun e ->
                     match (J.member "cat" e, J.member "name" e) with
                     | Some (J.String "compile"), Some (J.String n) -> Some n
                     | _ -> None)
                   evs)
          | _ -> Alcotest.fail "trace has no traceEvents list")
      | None -> Alcotest.fail "traced run has no trace member")
  | Error e -> Alcotest.fail e);
  match Request.parse_trace (trace_req " L 0x1000,8\n") with
  | Ok tr ->
      check_keys "trace" [ "simulate" ]
        (List.map fst (snd (Request.execute_trace tr)))
  | Error e -> Alcotest.fail e

(* Each request's spans_us keys, in order, in its journal record and
   its slowlog entry, for each cache outcome: an execution that raises
   (here a timeout) contributes no span of its own. *)
let test_request_span_keys () =
  H.with_temp_dir @@ fun dir ->
  let journal = Filename.concat dir "journal.jsonl" in
  let config =
    {
      Server.default_config with
      Server.workers = 1;
      journal_path = Some journal;
      slow_ms = 0.;
    }
  in
  let endless =
    trace_req (String.concat "" (List.init 20_000 (fun _ -> " L 0,65536\n")))
    |> with_member "split" (J.Int 1)
    |> with_member "timeout_ms" (J.Int 100)
  in
  let requests =
    [
      ("miss", cg_req "run" []);
      ("memory", cg_req "run" []);
      ("bypass", cg_req "run" [ ("nocache", J.Bool true) ]);
      ("miss", endless);
      ("none", J.Obj [ ("op", J.String "ping") ]);
    ]
  in
  let slowlog = ref J.Null in
  ignore
    ( with_daemon ~config "spans" @@ fun socket ->
      List.iter (fun (_, req) -> ignore (ask ~socket req)) requests;
      slowlog := ask ~socket (J.Obj [ ("op", J.String "slowlog") ]) );
  let parse s = match J.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  let span_keys what j =
    match J.member "spans_us" j with
    | Some (J.Obj ms) -> List.map fst ms
    | _ -> Alcotest.fail (what ^ ": no spans_us object")
  in
  let expected =
    [
      ("cold run", [ "decode"; "cache_lookup"; "compile"; "simulate"; "encode" ]);
      ("warm run", [ "decode"; "cache_lookup"; "encode" ]);
      ("nocache run", [ "decode"; "compile"; "simulate"; "encode" ]);
      ("timed-out trace", [ "decode"; "cache_lookup"; "encode" ]);
      ("ping", [ "decode"; "encode" ]);
    ]
  in
  let records = List.map parse (read_lines journal) in
  check_int "one journal line per request" 6 (List.length records);
  List.iteri
    (fun i ((what, keys), (cache, _)) ->
      let r = List.nth records i in
      check_bool (what ^ ": cache outcome") true
        (J.member "cache" r = Some (J.String cache));
      check_keys (what ^ ": journal spans") keys (span_keys what r))
    (List.combine expected requests);
  check_bool "the endless trace timed out" true
    (J.member "status" (List.nth records 3) = Some (J.String "timeout"));
  check_keys "slowlog op: journal spans" [ "decode"; "encode" ]
    (span_keys "slowlog op" (List.nth records 5));
  (* The slowlog lists the same requests newest first. *)
  match Option.map (J.member "entries") (Protocol.response_result !slowlog) with
  | Some (Some (J.List entries)) ->
      check_int "every request is slow at 0 ms" 5 (List.length entries);
      List.iter2
        (fun (what, keys) e -> check_keys (what ^ ": slowlog spans") keys (span_keys what e))
        (List.rev expected) entries
  | _ -> Alcotest.fail "slowlog reply has no entries"

(* --- cache maintenance ------------------------------------------------- *)

let test_purge_then_recompute () =
  H.with_temp_dir @@ fun tmp ->
  let dir = Filename.concat tmp "cache" in
  let c = Plan_cache.create ~dir ~max_entries:1 () in
  Plan_cache.add c "a" (v "1");
  Plan_cache.add c "b" (v "2");
  let plan_entries () =
    (List.find
       (fun f -> f.Cachetool.prefix = Plan_cache.file_prefix)
       (Cachetool.stats ~dir ()))
      .Cachetool.entries
  in
  check_int "both entries on disk" 2 (plan_entries ());
  (* An age bound keeps entries younger than the cutoff. *)
  let aged = Cachetool.purge ~older_than:3600. ~dir () in
  check_bool "age bound keeps fresh entries" true
    (List.for_all (fun r -> r.Cachetool.removed = 0) aged);
  check_int "nothing removed" 2 (plan_entries ());
  (* A full purge while the cache object is live: the disk tier
     empties, in-memory entries keep answering, evicted ones are
     recomputed (Absent) and can be stored again. *)
  let res = Cachetool.purge ~prefix:Plan_cache.file_prefix ~dir () in
  check_bool "purge removed both" true
    (List.exists
       (fun r ->
         r.Cachetool.p_prefix = Plan_cache.file_prefix
         && r.Cachetool.removed = 2)
       res);
  check_int "store empty" 0 (plan_entries ());
  check_bool "memory tier still answers" true
    (Plan_cache.lookup c "b" = Plan_cache.Memory (text (v "2")));
  check_bool "evicted entry must be recomputed" true
    (Plan_cache.lookup c "a" = Plan_cache.Absent);
  Plan_cache.add c "a" (v "1");
  check_bool "store accepts the recomputed entry" true
    (Plan_cache.lookup c "a" = Plan_cache.Memory (text (v "1")));
  check_int "recomputed entry persisted" 1 (plan_entries ())

(* --- a ctamap serve process ------------------------------------------ *)

(* Raw frames, written and read by hand rather than through [Protocol]:
   the daemon is the subject here, the client library is not. *)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (* A hung daemon fails the test instead of hanging it. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    let n = Bytes.length b - off in
    if n > 0 then go (off + Unix.write fd b off n)
  in
  go 0

exception Eof

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then
      match Unix.read fd b off (n - off) with 0 -> raise Eof | k -> go (off + k)
  in
  go 0;
  Bytes.to_string b

let frame payload =
  let n = String.length payload in
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF)) ^ payload

let send_frame fd payload = write_all fd (frame payload)

let recv_frame fd =
  let hdr = read_exact fd 4 in
  let n = String.fold_left (fun n c -> (n lsl 8) lor Char.code c) 0 hdr in
  if n > 1 lsl 26 then Alcotest.failf "reply frame claims %d bytes" n;
  read_exact fd n

let recv_json fd = H.parse_json ~what:"reply" (recv_frame fd)
let field name j = match j with J.Obj _ -> J.member name j | _ -> None

let expect_error what fd code =
  let j = recv_json fd in
  if field "ok" j <> Some (J.Bool false) then
    Alcotest.failf "%s: expected an ok=false reply, got %s" what (text j);
  match Option.bind (field "error" j) (field "code") with
  | Some (J.String c) -> Alcotest.(check string) (what ^ ": error code") code c
  | _ -> Alcotest.failf "%s: the error reply carries no code" what

(* A pong; returns its daemon-minted request id. *)
let expect_pong what fd =
  let j = recv_json fd in
  if
    field "ok" j <> Some (J.Bool true)
    || Option.bind (field "result" j) (field "pong") <> Some (J.Bool true)
  then Alcotest.failf "%s: expected a pong, got %s" what (text j);
  match field "request_id" j with
  | Some (J.Int rid) -> rid
  | _ -> Alcotest.failf "%s: the reply carries no request_id" what

let ping what fd =
  send_frame fd {|{"op":"ping"}|};
  ignore (expect_pong what fd)

let expect_eof what fd =
  match recv_frame fd with
  | exception (Eof | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)) -> ()
  | s ->
      Alcotest.failf "%s: expected the connection closed, got %d bytes" what
        (String.length s)

(* [f fd] on a fresh connection, closed after. *)
let with_conn ?timeout d f =
  let fd = connect d.H.socket in
  Option.iter (Unix.setsockopt_float fd Unix.SO_RCVTIMEO) timeout;
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* [f ()], failing as [what] if the daemon does not answer within the
   connection's timeout or closes it. *)
let answered what f =
  match f () with
  | v -> v
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.failf "%s: no reply in time" what
  | exception (Eof | Unix.Unix_error _) ->
      Alcotest.failf "%s: the connection closed without a reply" what

let cg = [ "cg"; "-m"; "harpertown"; "--scale"; "64" ]
let volatile = [ "timings_seconds"; "telemetry" ]

(* [j] less the members that hold wall clocks and process state. *)
let rec strip = function
  | J.Obj ms ->
      J.Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k volatile then None else Some (k, strip v))
           ms)
  | J.List l -> J.List (List.map strip l)
  | j -> j

(* [a] and [b] are one report outside the volatile members. *)
let same_report what a b =
  let a = text (strip a) and b = text (strip b) in
  if not (String.equal a b) then begin
    let n = min (String.length a) (String.length b) in
    let i = ref 0 in
    while !i < n && a.[!i] = b.[!i] do incr i done;
    let at s = String.sub s !i (min 40 (String.length s - !i)) in
    Alcotest.failf "%s: the reports differ at byte %d: %s vs %s" what !i (at a)
      (at b)
  end

(* [ctamap run args]'s report. *)
let one_shot args =
  H.with_temp_dir @@ fun dir ->
  let f = Filename.concat dir "report.json" in
  ignore (H.out H.ctamap (("run" :: args) @ [ "--json"; f ]));
  H.read_json f

let cg_one_shot = lazy (one_shot cg)

(* [ctamap client --op run args]'s standard output. *)
let served d args = H.client d ([ "--op"; "run" ] @ args)

let served_json d args = H.parse_json ~what:"served run" (served d args)

let quad_topo =
  {|(machine "Quad" (clock 2.0) (mem 150)
  (cache "L2#0" (level 2) (size 1M) (assoc 16) (line 64) (latency 12)
    (cache "L1#0" (level 1) (size 32K) (assoc 8) (line 64) (latency 3) (core))
    (cache "L1#1" (level 1) (size 32K) (assoc 8) (line 64) (latency 3) (core)))
  (cache "L2#1" (level 2) (size 1M) (assoc 16) (line 64) (latency 12)
    (cache "L1#2" (level 1) (size 32K) (assoc 8) (line 64) (latency 3)
      (cores 2))))
|}

(* A served run is the one-shot run: for a preset, for a topology file
   at the default --scale (the client sends the scale, and the daemon
   applies it to topology text as to presets), and where the one-shot
   run sets a knob its scheme ignores.  A repeat comes from the plan
   cache byte for byte, and a cached load burst has no errors. *)
let test_served_is_one_shot () =
  H.with_temp_dir @@ fun dir ->
  let topo = Filename.concat dir "quad.topo" in
  H.write_file topo quad_topo;
  H.with_serve dir @@ fun d ->
  let first = served d cg in
  same_report "cg" (Lazy.force cg_one_shot) (H.parse_json ~what:"served" first);
  let quad = [ "cg"; "-m"; topo ] in
  same_report "topology file" (one_shot quad) (served_json d quad);
  same_report "ignored knobs"
    (one_shot (cg @ [ "-s"; "base"; "--alpha=0.9" ]))
    (served_json d (cg @ [ "-s"; "base" ]));
  Alcotest.(check string) "the repeat is byte-identical" first (served d cg);
  let stats = H.parse_json ~what:"stats" (H.client d [ "--op"; "stats" ]) in
  (match J.member "cached" stats with
  | Some (J.Int n) -> check_bool "stats count a cache hit" true (n >= 1)
  | _ -> Alcotest.fail "stats carry no cached count");
  let load =
    H.parse_json ~what:"load"
      (served d (cg @ [ "--load"; "20"; "--concurrency"; "2"; "--json" ]))
  in
  check_bool "load burst without errors" true
    (J.member "errors" load = Some (J.Int 0))

(* Hostile input gets the structured error the protocol promises, and
   the connection keeps working wherever it can: a length prefix that
   is plain garbage, an oversized honest frame, a frame that is not
   JSON, JSON that is not a request, a mid-frame disconnect, and an
   oversized frame with pings pipelined behind it. *)
let test_hostile_input () =
  H.with_temp_dir @@ fun dir ->
  H.with_serve dir @@ fun d ->
  (* An HTTP request's first four bytes claim ~1.2 GB, past any drain
     ceiling: an error, then the daemon closes this connection. *)
  with_conn d (fun fd ->
      write_all fd "GET / HTTP/1.0\r\n\r\n";
      expect_error "garbage prefix" fd "oversized_frame";
      expect_eof "garbage prefix" fd);
  (* 20 MiB, over the 16 MiB default: drained, so the connection stays
     in sync. *)
  let huge = frame (String.make (20 * 1024 * 1024) 'x') in
  with_conn d (fun fd ->
      write_all fd huge;
      expect_error "oversized frame" fd "oversized_frame";
      ping "oversized frame" fd);
  with_conn d (fun fd ->
      send_frame fd "{this is not json";
      expect_error "malformed json" fd "malformed_json";
      ping "malformed json" fd;
      List.iter
        (fun (what, req) ->
          send_frame fd req;
          expect_error what fd "bad_request")
        [
          ("non-object request", "[1,2,3]");
          ("unknown op", {|{"op":"frobnicate"}|});
          ( "unknown program",
            {|{"op":"run","program":"no-such-kernel","machine":"harpertown"}|} );
        ];
      ping "bad requests" fd);
  (* Promise 100 bytes, deliver 10, vanish. *)
  with_conn d (fun fd -> write_all fd "\x00\x00\x00\x64truncated!");
  with_conn d (ping "after a mid-frame disconnect");
  (* The drain consumes exactly the declared bytes: every pipelined
     ping is answered, in order. *)
  with_conn d (fun fd ->
      let ping = frame {|{"op":"ping"}|} in
      write_all fd (String.concat "" [ huge; ping; ping; ping ]);
      expect_error "pipelined resync" fd "oversized_frame";
      let rids = List.init 3 (fun _ -> expect_pong "pipelined resync" fd) in
      check_bool "request ids increase" true (List.sort_uniq compare rids = rids))

(* One [run] request sent twice on a raw connection under an id full of
   escapes: each reply is the canonical minified encoding of its own
   parse, echoes the id and carries the same result bytes.  Returns the
   two replies' [cached] flags. *)
let wire d =
  let id =
    J.Obj
      [
        ("probe", J.String "wire \"bytes\"\\ \n\t\001 \xc3\xa9");
        ("n", J.List [ J.Int (-1); J.Float 0.5; J.Null ]);
      ]
  in
  let request =
    text
      (J.Obj
         [
           ("id", id);
           ("op", J.String "run");
           ("program", J.String "cg");
           ("machine", J.String "harpertown");
           ("scale", J.Int 64);
         ])
  in
  with_conn d @@ fun fd ->
  let reply n =
    send_frame fd request;
    let payload = recv_frame fd in
    let j = H.parse_json ~what:"wire reply" payload in
    let what = Printf.sprintf "reply %d " n in
    Alcotest.(check string) (what ^ "is canonical") (text j) payload;
    check_bool (what ^ "ok") true (field "ok" j = Some (J.Bool true));
    check_bool (what ^ "echoes the id") true (field "id" j = Some id);
    match field "result" j with
    | Some r -> (text r, field "cached" j = Some (J.Bool true))
    | None -> Alcotest.failf "reply %d carries no result" n
  in
  let r1, c1 = reply 1 in
  let r2, c2 = reply 2 in
  Alcotest.(check string) "same result bytes" r1 r2;
  (c1, c2)

(* Replies over the persistent cache: computed, then from memory; after
   a restart from disk, then from the entry promoted into memory; after
   a restart over entries replaced by valid JSON that is no entry,
   recomputed, and still the one-shot answer. *)
let test_reply_tiers () =
  H.with_temp_dir @@ fun dir ->
  let cached = Alcotest.(check (pair bool bool)) in
  cached "computed, then memory" (false, true) (H.with_serve dir wire);
  cached "disk, then memory" (true, true) (H.with_serve dir wire);
  let cache = Filename.concat dir "cache" in
  let entries =
    List.filter
      (String.starts_with ~prefix:"ctam-plan-")
      (Array.to_list (Sys.readdir cache))
  in
  check_bool "persistent entries written" true (entries <> []);
  List.iter (fun f -> H.write_file (Filename.concat cache f) "[]\n") entries;
  H.with_serve dir @@ fun d ->
  same_report "after corruption" (Lazy.force cg_one_shot) (served_json d cg);
  ignore (wire d);
  ignore (H.client d [ "--op"; "ping" ])

(* The [Threads:] count of process [pid]; None without /proc. *)
let threads pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec find () =
            match String.split_on_char ':' (input_line ic) with
            | [ "Threads"; n ] -> int_of_string_opt (String.trim n)
            | _ -> find ()
            | exception End_of_file -> None
          in
          find ())

(* 200 nocache runs with a 1 ms timeout over 2 connections, more than
   the runtime's domain cap: each gets a [timeout] reply echoing its id,
   within 20 s in all, the [timeouts] counter grows by 200, and the
   daemon's thread count never rises above its idle count (timed-out
   work stops instead of running on).  Then it still computes the
   one-shot answer. *)
let test_deadline_burst () =
  H.with_temp_dir @@ fun dir ->
  H.with_serve dir @@ fun d ->
  let rounds = 100 and conns = 2 in
  let request n =
    text
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
  let fds = Array.init conns (fun _ -> connect d.H.socket) in
  Fun.protect ~finally:(fun () -> Array.iter Unix.close fds) (fun () ->
      let timeouts () =
        send_frame fds.(0) {|{"op":"stats"}|};
        let stats = recv_json fds.(0) in
        match Option.bind (field "result" stats) (field "timeouts") with
        | Some (J.Int n) -> n
        | _ -> Alcotest.fail "stats carry no timeouts count"
      in
      (* The idle count waits until both workers have answered: each
         holds one connection, so a ping on each reaches both.  The
         second worker's domain starts the runtime's backup thread for
         itself, and until that domain runs the daemon has one thread
         fewer than when idle. *)
      Array.iteri (fun c fd -> ping (Printf.sprintf "worker %d" c) fd) fds;
      let before = timeouts () in
      let idle = threads d.H.pid in
      let peak = ref (Option.value idle ~default:0) in
      let t0 = Unix.gettimeofday () in
      for r = 0 to rounds - 1 do
        Array.iteri (fun c fd -> send_frame fd (request ((r * conns) + c))) fds;
        Array.iteri
          (fun c fd ->
            let n = (r * conns) + c in
            let j = recv_json fd in
            if field "id" j <> Some (J.Int n) then
              Alcotest.failf "reply %d does not echo its id" n;
            let code = Option.bind (field "error" j) (field "code") in
            if code <> Some (J.String "timeout") then
              Alcotest.failf "reply %d is not a timeout: %s" n (text j))
          fds;
        Option.iter (fun n -> peak := max !peak n) (threads d.H.pid)
      done;
      let wall = Unix.gettimeofday () -. t0 in
      check_bool
        (Printf.sprintf "200 timeouts in %.1f s, under 20 s" wall)
        true (wall < 20.);
      check_int "timeouts counted" (rounds * conns) (timeouts () - before);
      Option.iter (fun n -> check_int "daemon threads stay at idle" n !peak) idle);
  same_report "after the burst" (Lazy.force cg_one_shot)
    (served_json d (cg @ [ "--nocache" ]))

(* On a 2 MB stack, no frame takes a worker away: three frames of
   200,000 nested arrays on fresh connections (more than the 2 workers)
   overflow the decoder and each gets an [internal] reply within 5 s,
   then a ping its pong; a ping whose id is 30,000 nested arrays
   decodes, and the pong echoing it is encoded, then a plain ping on the
   same connection is answered. *)
let test_small_stack () =
  H.with_temp_dir @@ fun dir ->
  H.with_serve ~env:[ ("OCAMLRUNPARAM", "l=256k") ] dir @@ fun d ->
  let nested n = String.make n '[' ^ String.make n ']' in
  let deep = nested 200_000 in
  for i = 1 to 3 do
    let what = Printf.sprintf "deep frame %d" i in
    with_conn ~timeout:5. d (fun fd ->
        send_frame fd deep;
        answered what (fun () -> expect_error what fd "internal"))
  done;
  with_conn ~timeout:5. d (fun fd ->
      answered "after deep frames" (fun () -> ping "after deep frames" fd));
  let id = nested 30_000 in
  with_conn ~timeout:5. d (fun fd ->
      send_frame fd (Printf.sprintf {|{"op":"ping","id":%s}|} id);
      let reply = answered "deep id" (fun () -> recv_json fd) in
      check_bool "a pong" true
        (Option.bind (field "result" reply) (field "pong") = Some (J.Bool true));
      check_bool "echoing the id" true
        (Option.map text (field "id" reply) = Some id);
      answered "after the deep id" (fun () -> ping "after the deep id" fd))

(* A serially issued mixed burst through a daemon with a journal, a
   0 ms slowlog and JSON logs: a traced run embeds its trace, stats
   carry the journal and uptime, the slowlog holds the burst, the
   metrics op gives a valid exposition with the request, span and
   journal series and a valid snapshot, the journal passes
   [journal_replay check --monotone] and replays against the daemon,
   [ctamap top] renders a snapshot, and the startup log line carries the
   effective config. *)
let test_observability () =
  H.with_temp_dir @@ fun dir ->
  let journal = Filename.concat dir "journal.jsonl" in
  let log =
    H.with_serve dir
      ~args:[ "--journal"; journal; "--slow-ms"; "0"; "--log-format"; "json" ]
    @@ fun d ->
    let op name args = H.client d ([ "--op"; name ] @ args) in
    ignore (op "ping" []);
    ignore (op "run" cg);
    ignore (op "run" cg);
    ignore (op "map" cg);
    ignore (op "check" cg);
    check_bool "a bad request fails" true
      ((H.run H.ctamap
          [ "client"; "--socket"; d.H.socket; "--op"; "run"; "no-such-kernel";
            "-m"; "harpertown" ])
         .H.code <> 0);
    check_bool "a traced run carries its trace" true
      (H.contains ~affix:{|"traceEvents"|} (op "run" (cg @ [ "--trace" ])));
    let stats = H.parse_json ~what:"stats" (op "stats" []) in
    List.iter
      (fun m -> check_bool ("stats carry " ^ m) true (J.member m stats <> None))
      [ "journal"; "uptime_seconds" ];
    check_bool "the slowlog holds the burst" true
      (H.contains ~affix:{|"request_id"|} (op "slowlog" []));
    let prom = op "metrics" [ "--format"; "prometheus" ] in
    Metrics_schema.check_prom ~what:"metrics op" prom;
    List.iter
      (fun prefix ->
        check_bool prefix true (Metrics_schema.samples ~prefix prom <> []))
      [
        "ctam_serve_request_seconds_bucket";
        "ctam_serve_span_seconds_bucket";
        "ctam_serve_journal_records_total";
      ];
    let span_counts =
      Metrics_schema.samples ~prefix:"ctam_serve_span_seconds_count{" prom
    in
    List.iter
      (fun span ->
        let affix = Printf.sprintf {|span="%s"}|} span in
        check_bool (span ^ " span exposed") true
          (List.exists (H.contains ~affix) span_counts))
      [ "decode"; "cache_lookup"; "compile"; "encode" ];
    ignore
      (Metrics_schema.check_snapshot ~what:"metrics op"
         (H.parse_json ~what:"metrics" (op "metrics" [])));
    ignore (H.out H.journal_replay [ "check"; journal; "--monotone" ]);
    ignore (H.out H.journal_replay [ "replay"; journal; d.H.socket ]);
    let top = H.out H.ctamap [ "top"; "--socket"; d.H.socket; "--count"; "1" ] in
    check_bool "top renders the cache line" true
      (H.contains ~affix:"plan cache:" top);
    check_bool "top renders a per-op row" true (H.contains ~affix:"run" top);
    d.H.log
  in
  match
    List.filter
      (H.contains ~affix:{|"msg":"mapping daemon listening"|})
      (String.split_on_char '\n' (H.read_file log))
  with
  | [] -> Alcotest.fail "no JSON startup line in the daemon log"
  | lines ->
      check_bool "the startup line carries the config" true
        (List.exists (H.contains ~affix:{|"workers"|}) lines)

let () =
  Alcotest.run "serve"
    [
      ( "plan-cache",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "byte bound" `Quick test_byte_bound;
          Alcotest.test_case "concurrent hit-or-miss" `Quick
            test_concurrent_hit_or_miss;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "read-error classification" `Quick
            test_read_error_classification;
          Alcotest.test_case "response shapes" `Quick test_response_shapes;
          QCheck_alcotest.to_alcotest prop_ok_pieces_canonical;
          QCheck_alcotest.to_alcotest prop_splice_canonical;
          QCheck_alcotest.to_alcotest prop_framing_total;
          QCheck_alcotest.to_alcotest prop_frames_in_order;
          Alcotest.test_case "resync under pipelining" `Quick
            test_resync_pipelined;
        ] );
      ( "observability",
        [
          Alcotest.test_case "request context" `Quick test_reqctx;
          Alcotest.test_case "ambient log context" `Quick test_reqctx_logging;
          Alcotest.test_case "journal record and rotation" `Quick
            test_journal_record_and_rotation;
          Alcotest.test_case "slowlog ring" `Quick test_slowlog;
          Alcotest.test_case "plan-cache lookup tiers" `Quick
            test_lookup_tiers;
        ] );
      ( "trace op",
        [
          Alcotest.test_case "parse, key, strict errors" `Quick
            test_trace_request_parse;
          QCheck_alcotest.to_alcotest prop_parse_total;
          Alcotest.test_case "daemon survives a bad trace" `Quick
            test_daemon_survives_bad_trace;
          Alcotest.test_case "daemon replies are canonical" `Quick
            test_daemon_replies_canonical;
          Alcotest.test_case "deadline stops abandoned work" `Quick
            test_deadline_stops_work;
          Alcotest.test_case "rejected members cost no worker" `Quick
            test_machine_checked_members;
          Alcotest.test_case "execution span names" `Quick
            test_execute_span_names;
          Alcotest.test_case "request span keys" `Quick test_request_span_keys;
        ] );
      ( "cache maintenance",
        [
          Alcotest.test_case "purge then recompute" `Quick
            test_purge_then_recompute;
        ] );
      ( "daemon process",
        [
          Alcotest.test_case "served = one-shot" `Quick test_served_is_one_shot;
          Alcotest.test_case "hostile input" `Quick test_hostile_input;
          Alcotest.test_case "reply tiers and a corrupt cache" `Quick
            test_reply_tiers;
          Alcotest.test_case "deadline burst" `Quick test_deadline_burst;
          Alcotest.test_case "small stack" `Quick test_small_stack;
          Alcotest.test_case "observability" `Quick test_observability;
        ] );
    ]
