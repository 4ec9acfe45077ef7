type source = File of string | Text of string

type input =
  | Plain of in_channel
  | Gunzip of string * in_channel  (* the path, [gzip -dc]'s output *)
  | Drained  (* the rest of the input is in the buffer *)

type chan = {
  mutable input : input;
  mutable buf : Bytes.t;
  mutable lo : int;  (* start of the unread input in [buf] *)
  mutable hi : int;  (* end of the input in [buf] *)
  mutable scanned : int;  (* [buf.[lo..scanned)] holds no newline *)
  mutable line_pos : int;
  mutable line_len : int;
}

let buffer_size = 16384

(* Gzip files announce themselves with a two-byte magic; sniffing it
   beats trusting the extension, and decompressing through the system
   [gzip] keeps the library dependency-free. *)
let is_gzip path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        let a = input_char ic in
        let b = input_char ic in
        Char.code a = 0x1f && Char.code b = 0x8b
      with End_of_file -> false)

let make input buf hi =
  { input; buf; lo = 0; hi; scanned = 0; line_pos = 0; line_len = 0 }

let open_source = function
  | Text text -> make Drained (Bytes.unsafe_of_string text) (String.length text)
  | File path ->
      if not (Sys.file_exists path) then
        raise (Sys_error (path ^ ": no such file"));
      (* A replay reopens the source after its scan, which a pipe cannot
         honour.  [stat] follows links, so [/dev/stdin] redirected from
         a file passes. *)
      if (Unix.stat path).Unix.st_kind <> Unix.S_REG then
        raise
          (Sys_error
             (path ^ ": not a regular file (a trace is read more than once)"));
      let input =
        if is_gzip path then
          Gunzip
            ( path,
              Unix.open_process_in
                (Printf.sprintf "gzip -dc %s" (Filename.quote path)) )
        else Plain (open_in path)
      in
      make input (Bytes.create buffer_size) 0

let close t =
  (match t.input with
  | Plain ic -> close_in_noerr ic
  | Gunzip (_, ic) -> ignore (Unix.close_process_in ic)
  | Drained -> ());
  t.input <- Drained

(* The decompressor's exit status tells a complete stream from one cut
   short, so it is checked where its output ends — not on an early
   close, which may kill it mid-stream. *)
let finish t =
  let input = t.input in
  t.input <- Drained;
  match input with
  | Plain ic -> close_in_noerr ic
  | Gunzip (path, ic) -> (
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n ->
          raise
            (Sys_error
               (Printf.sprintf
                  "%s: gzip -dc exited with status %d (truncated or corrupt \
                   input)"
                  path n))
      | Unix.WSIGNALED n | Unix.WSTOPPED n ->
          raise
            (Sys_error
               (Printf.sprintf "%s: gzip -dc killed by signal %d" path n)))
  | Drained -> ()

(* Read the next block behind the partial line at [lo], first moving
   that line to the front of the buffer, or doubling the buffer when
   the line fills it. *)
let refill t ic =
  let keep = t.hi - t.lo in
  if t.lo > 0 then begin
    Bytes.blit t.buf t.lo t.buf 0 keep;
    t.scanned <- t.scanned - t.lo;
    t.lo <- 0;
    t.hi <- keep
  end;
  if t.hi = Bytes.length t.buf then begin
    let b = Bytes.create (2 * Bytes.length t.buf) in
    Bytes.blit t.buf 0 b 0 t.hi;
    t.buf <- b
  end;
  let n = input ic t.buf t.hi (Bytes.length t.buf - t.hi) in
  if n = 0 then finish t else t.hi <- t.hi + n

let set_line t i j =
  let j = if j > i && Bytes.unsafe_get t.buf (j - 1) = '\r' then j - 1 else j in
  t.line_pos <- i;
  t.line_len <- j - i

let rec next t =
  let k = ref (max t.lo t.scanned) in
  while !k < t.hi && Bytes.unsafe_get t.buf !k <> '\n' do incr k done;
  if !k < t.hi then begin
    set_line t t.lo !k;
    t.lo <- !k + 1;
    true
  end
  else
    match t.input with
    | Plain ic | Gunzip (_, ic) ->
        t.scanned <- t.hi;
        refill t ic;
        next t
    | Drained when t.lo < t.hi ->
        (* A last line without a terminator. *)
        set_line t t.lo t.hi;
        t.lo <- t.hi;
        true
    | Drained -> false

let line_buf t = t.buf
let line_pos t = t.line_pos
let line_len t = t.line_len
