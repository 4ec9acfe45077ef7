(* The JSON codec as it stood before its hot paths were rewritten to
   allocate only what they return, kept verbatim as the differential
   oracle for [Ctam_util.Json]: the rewrite must print every value and
   parse every input exactly as this does, errors included.  The one
   intended difference is infinite floats, which this prints as inf /
   -inf and the library prints as null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --------------------------------------------------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string ?(minify = false) v =
  let b = Buffer.create 256 in
  let nl indent =
    if not minify then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ')
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool bo -> Buffer.add_string b (if bo then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
        if Float.is_nan f || Float.is_integer (f /. 0.) then
          (* JSON has no NaN/inf; null is the conventional stand-in. *)
          Buffer.add_string b "null"
        else Buffer.add_string b (float_repr f)
    | String s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            nl (indent + 2);
            go (indent + 2) v)
          vs;
        nl indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj ms ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            nl (indent + 2);
            escape_string b k;
            Buffer.add_string b (if minify then ":" else ": ");
            go (indent + 2) v)
          ms;
        nl indent;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* --- parsing ---------------------------------------------------------- *)

exception Parse of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_hex4 () =
    (* Exactly four [0-9a-fA-F] digits.  Going through
       [int_of_string_opt ("0x" ^ h)] here would admit OCaml integer
       syntax that JSON forbids (underscores as in "\u12_3", a second
       "0x" prefix, signs). *)
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape (want four hex digits)"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 b cp =
    (* Encode a Unicode scalar value as UTF-8. *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           let c = s.[!pos] in
           advance ();
           match c with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 'r' -> Buffer.add_char b '\r'
           | 't' -> Buffer.add_char b '\t'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
               (* Surrogate handling: a high+low pair combines into one
                  scalar; an unpaired surrogate (either half) becomes
                  U+FFFD, so the output is always valid UTF-8 — raw
                  surrogate code points must never be UTF-8-encoded. *)
               let rec emit cp =
                 if cp >= 0xD800 && cp <= 0xDBFF then
                   if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = parse_hex4 () in
                     if lo >= 0xDC00 && lo <= 0xDFFF then
                       add_utf8 b (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                     else begin
                       (* Unpaired high; the second escape stands alone. *)
                       add_utf8 b 0xFFFD;
                       emit lo
                     end
                   end
                   else add_utf8 b 0xFFFD
                 else if cp >= 0xDC00 && cp <= 0xDFFF then add_utf8 b 0xFFFD
                 else add_utf8 b cp
               in
               emit (parse_hex4 ())
           | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elements [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse (p, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)
  | exception Failure msg -> Error (Printf.sprintf "JSON parse error: %s" msg)

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> invalid_arg msg

(* --- accessors -------------------------------------------------------- *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Obj _ -> "object"

let member name = function
  | Obj ms -> List.assoc_opt name ms
  | v -> invalid_arg (Printf.sprintf "Json.member %s: not an object (%s)" name (type_name v))

let member_exn name v =
  match member name v with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Json.member_exn: missing member %s" name)

let to_int = function
  | Int i -> i
  | v -> invalid_arg (Printf.sprintf "Json.to_int: %s" (type_name v))

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> invalid_arg (Printf.sprintf "Json.to_float: %s" (type_name v))

let to_bool = function
  | Bool b -> b
  | v -> invalid_arg (Printf.sprintf "Json.to_bool: %s" (type_name v))

let to_string_value = function
  | String s -> s
  | v -> invalid_arg (Printf.sprintf "Json.to_string_value: %s" (type_name v))

let to_list = function
  | List l -> l
  | v -> invalid_arg (Printf.sprintf "Json.to_list: %s" (type_name v))
