(* journal_replay: validator and replayer for the mapping daemon's
   audit journal (test_serve "observability" drives it).

   [journal_replay check FILE [--monotone]] validates the JSONL
   schema: every line is one JSON object with the versioned record
   members ([ctam_journal_version] = 1, request id, op, cache outcome,
   status, per-span micros, byte counts, request and response
   documents).  [--monotone] additionally requires request ids to be
   strictly increasing line over line (true for serially-driven
   journals; concurrent workers may interleave append order).

   [journal_replay replay FILE SOCKET] re-issues each journaled
   request against a live daemon and diffs the fresh response against
   the recorded one, modulo the volatile members (wall-clock timings,
   telemetry snapshots, daemon-minted request ids, cache-hit flags,
   embedded traces).  Records whose responses are inherently unstable
   (stats, metrics, slowlog, shutdown) and records without a request
   document (malformed or oversized frames) are skipped, not diffed.
   Exit 0 means every replayed answer matched. *)

module J = Ctam_util.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("journal_replay: " ^ s);
      exit 1)
    fmt

let member name j = match j with J.Obj _ -> J.member name j | _ -> None

let read_lines path =
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let rec go acc n =
    match input_line ic with
    | line -> go ((n, line) :: acc) (n + 1)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go [] 1

let parse_record (n, line) =
  match J.parse line with
  | Ok (J.Obj _ as j) -> (n, j)
  | Ok _ -> fail "line %d: record is not a JSON object" n
  | Error e -> fail "line %d: %s" n e

(* --- check mode ------------------------------------------------------- *)

let require_int n name j =
  match member name j with
  | Some (J.Int i) -> i
  | _ -> fail "line %d: missing integer %S" n name

let require_string n name j =
  match member name j with
  | Some (J.String s) -> s
  | _ -> fail "line %d: missing string %S" n name

let check_record (n, j) =
  let version = require_int n "ctam_journal_version" j in
  if version <> 1 then fail "line %d: unknown journal version %d" n version;
  (match member "ts" j with
  | Some (J.Float _) -> ()
  | _ -> fail "line %d: missing number \"ts\"" n);
  let rid = require_int n "request_id" j in
  ignore (require_int n "conn" j);
  ignore (require_string n "op" j);
  (match require_string n "cache" j with
  | "memory" | "disk" | "miss" | "bypass" | "none" -> ()
  | c -> fail "line %d: unknown cache outcome %S" n c);
  (match require_string n "status" j with
  | "ok" | "error" | "timeout" -> ()
  | s -> fail "line %d: unknown status %S" n s);
  ignore (require_int n "total_us" j);
  (match member "spans_us" j with
  | Some (J.Obj spans) ->
      List.iter
        (fun (k, v) ->
          match v with
          | J.Int us when us >= 0 -> ()
          | _ -> fail "line %d: span %S is not a non-negative integer" n k)
        spans
  | _ -> fail "line %d: missing object \"spans_us\"" n);
  ignore (require_int n "bytes_in" j);
  ignore (require_int n "bytes_out" j);
  (match (member "request" j, member "response" j) with
  | Some _, Some _ -> ()
  | _ -> fail "line %d: missing \"request\"/\"response\" members" n);
  (n, rid)

let check ~monotone path =
  let records = List.map parse_record (read_lines path) in
  let ids = List.map check_record records in
  if monotone then
    ignore
      (List.fold_left
         (fun prev (n, rid) ->
           (match prev with
           | Some p when rid <= p ->
               fail "line %d: request id %d not above predecessor %d" n rid p
           | _ -> ());
           Some rid)
         None ids);
  Printf.printf "journal_replay: check ok (%d records)\n" (List.length records)

(* --- replay mode ------------------------------------------------------ *)

(* Ops whose responses describe the daemon's own mutable state — a
   replay can never expect them to match. *)
let unstable_ops = [ "stats"; "metrics"; "slowlog"; "shutdown" ]

(* Response members that legitimately differ between the original
   service and the replay. *)
let volatile =
  [ "timings_seconds"; "telemetry"; "request_id"; "cached"; "ts"; "trace" ]

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

let replay path socket =
  let records = List.map parse_record (read_lines path) in
  let replayed = ref 0 and skipped = ref 0 in
  List.iter
    (fun (n, j) ->
      let op = match member "op" j with Some (J.String s) -> s | _ -> "?" in
      let request = Option.value ~default:J.Null (member "request" j) in
      let recorded = Option.value ~default:J.Null (member "response" j) in
      if List.mem op unstable_ops || request = J.Null then incr skipped
      else
        match Ctam_serve.Client.one_shot ~socket request with
        | Error e -> fail "line %d (%s): replay failed: %s" n op e
        | Ok fresh ->
            let a = J.to_string ~minify:true (strip recorded) in
            let b = J.to_string ~minify:true (strip fresh) in
            if not (String.equal a b) then begin
              let m = min (String.length a) (String.length b) in
              let i = ref 0 in
              while !i < m && a.[!i] = b.[!i] do
                incr i
              done;
              fail
                "line %d (%s): replayed answer differs beyond the volatile \
                 members (byte %d: %s vs %s)"
                n op !i
                (String.sub a !i (min 40 (String.length a - !i)))
                (String.sub b !i (min 40 (String.length b - !i)))
            end;
            incr replayed)
    records;
  Printf.printf "journal_replay: replay ok (%d replayed, %d skipped)\n"
    !replayed !skipped

let () =
  match Array.to_list Sys.argv with
  | [ _; "check"; path ] -> check ~monotone:false path
  | [ _; "check"; path; "--monotone" ] -> check ~monotone:true path
  | [ _; "replay"; path; socket ] -> replay path socket
  | _ ->
      prerr_endline
        "usage: journal_replay check FILE [--monotone] | journal_replay \
         replay FILE SOCKET";
      exit 2
