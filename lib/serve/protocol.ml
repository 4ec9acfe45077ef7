(* Wire protocol of the mapping service: length-prefixed JSON frames
   over a Unix-domain stream socket.

   A frame is a 4-byte big-endian payload length followed by exactly
   that many bytes of UTF-8 JSON (one request or one response).  The
   prefix makes framing independent of the payload (no sentinel
   scanning, binary-safe) and lets the receiver reject an oversized
   request *before* buffering it — an essential property for a daemon
   that must survive hostile input.

   Error discipline: this module never lets a socket problem escape as
   an uncaught exception on the read side — every failure mode is a
   constructor the server can answer with a structured error reply.
   Writes raise [Unix.Unix_error] (e.g. [EPIPE] when the client
   vanished mid-reply); the connection loop catches those and drops
   only that connection. *)

module J = Ctam_util.Json

let default_max_frame = 16 * 1024 * 1024

(* Declared lengths up to this are drained (read and discarded) so the
   stream stays framed after an oversized request is refused; beyond
   it the length is treated as garbage — a client that never spoke the
   protocol — and the connection cannot be resynchronized. *)
let drain_ceiling = 64 * 1024 * 1024

type read_error =
  | Closed  (** peer closed (or truncated a frame) *)
  | Stopped  (** the [on_idle] callback asked to abandon the wait *)
  | Oversized of { length : int; in_sync : bool }
      (** declared length exceeds the limit; [in_sync] says whether the
          body was drained so the connection can keep serving *)

(* [read_n fd n ~on_idle] reads exactly [n] bytes.  A receive timeout
   on [fd] (EAGAIN) invokes [on_idle]: [`Continue] retries the read
   (mid-frame retries are safe — nothing is discarded), [`Stop]
   abandons the connection.  This is how server workers blocked on an
   idle client notice a daemon shutdown without losing frame sync. *)
let read_n fd n ~on_idle =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Ok buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> Error Closed
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
          match on_idle () with `Continue -> go off | `Stop -> Error Stopped)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> Error Closed
  in
  go 0

let drain fd length ~on_idle =
  let chunk = Bytes.create 65536 in
  let rec go left =
    if left <= 0 then true
    else
      match Unix.read fd chunk 0 (min left (Bytes.length chunk)) with
      | 0 -> false
      | k -> go (left - k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
          match on_idle () with `Continue -> go left | `Stop -> false)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go left
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go length

let read_frame ?(max_bytes = default_max_frame) ?(on_idle = fun () -> `Continue)
    fd =
  match read_n fd 4 ~on_idle with
  | Error e -> Error e
  | Ok hdr ->
      let b i = Char.code (Bytes.get hdr i) in
      let length = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if length > max_bytes then
        if length <= drain_ceiling && drain fd length ~on_idle then
          Error (Oversized { length; in_sync = true })
        else Error (Oversized { length; in_sync = false })
      else (
        match read_n fd length ~on_idle with
        | Ok payload -> Ok (Bytes.unsafe_to_string payload)
        | Error e -> Error e)

(* [write_pieces fd pieces] writes one frame whose payload is the
   concatenation of [pieces]: the 4-byte header, then each piece as it
   is.  A cached run report is tens of kilobytes; copying it into one
   frame buffer per reply would cost as much as the rest of a warm hit. *)
let write_pieces fd pieces =
  let n = List.fold_left (fun a s -> a + String.length s) 0 pieces in
  if n > 0xFFFFFFFF then invalid_arg "Protocol.write_pieces: frame too large";
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set hdr 3 (Char.chr (n land 0xFF));
  let write_all s =
    let len = String.length s in
    let rec go off =
      if off < len then
        match Unix.write_substring fd s off (len - off) with
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0
  in
  write_all (Bytes.unsafe_to_string hdr);
  List.iter write_all pieces

let write_frame fd payload = write_pieces fd [ payload ]

let write_json fd j = write_frame fd (J.to_string ~minify:true j)

(* --- response shapes -------------------------------------------------- *)

(* [request_id] is the daemon-minted monotonic id (distinct from the
   client-chosen [id] echo): present on every reply of an observable
   daemon so a client error message can be correlated with the
   daemon's log lines, journal record and slowlog entry. *)

let request_id_members = function
  | None -> []
  | Some rid -> [ ("request_id", J.Int rid) ]

let ok_members ~id ~request_id ~cached =
  [ ("id", id) ]
  @ request_id_members request_id
  @ [ ("ok", J.Bool true); ("cached", J.Bool cached) ]

let ok_response ?(id = J.Null) ?request_id ?(cached = false) result =
  J.Obj (ok_members ~id ~request_id ~cached @ [ ("result", result) ])

(* [splice members name pieces] is the minified text of
   [J.Obj (members @ [ (name, v) ])] as pieces, where [pieces] already
   are the minified text of [v] and [name] needs no escaping.  Only
   [members] are encoded; the value's pieces are passed through. *)
let splice members name pieces =
  let head = J.to_string ~minify:true (J.Obj members) in
  String.concat ""
    [
      String.sub head 0 (String.length head - 1);
      (if members = [] then "" else ",");
      "\"";
      name;
      "\":";
    ]
  :: (pieces @ [ "}" ])

(* [ok_pieces ... result_text] is the payload of [ok_response ...
   result] as pieces, given [result_text], the minified text of
   [result]: the envelope is encoded around the stored bytes of a
   cached plan instead of re-encoding the plan on every hit.  The
   concatenation is byte-identical to
   [J.to_string ~minify:true (ok_response ... result)]. *)
let ok_pieces ?(id = J.Null) ?request_id ?(cached = false) result_text =
  splice (ok_members ~id ~request_id ~cached) "result" [ result_text ]

let error_response ?(id = J.Null) ?request_id ~code message =
  J.Obj
    ([ ("id", id) ]
    @ request_id_members request_id
    @ [
        ("ok", J.Bool false);
        ( "error",
          J.Obj [ ("code", J.String code); ("message", J.String message) ] );
      ])

(* Total accessors mirroring the server's view of a reply: never raise,
   even on replies that are not objects at all. *)

let mem name = function J.Obj _ as j -> J.member name j | _ -> None

let response_ok j = match mem "ok" j with Some (J.Bool b) -> b | _ -> false

let response_cached j =
  match mem "cached" j with Some (J.Bool b) -> b | _ -> false

let response_result j = mem "result" j

let response_request_id j =
  match mem "request_id" j with Some (J.Int i) -> Some i | _ -> None

let response_error j =
  match mem "error" j with
  | Some (J.Obj _ as e) ->
      let get name =
        match J.member name e with Some (J.String s) -> s | _ -> ""
      in
      Some (get "code", get "message")
  | _ -> None
