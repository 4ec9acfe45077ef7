type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The daemon's warm path is mostly this codec: a cached run reply is
   50-90 KB of object keys and ints, decoded and re-encoded per request.
   So the hot paths below allocate little beyond what they return — no [char
   option] per byte, no [Buffer] per unescaped string, no substring per
   number or literal, no [string_of_int] or indentation string per
   line.  (Containers still accumulate and reverse: building the list
   in order with [@tail_mod_cons] measured 8% slower.)  Their output is
   byte-identical to the straightforward codec they replaced, error
   messages and offsets included; the test suite checks that against a
   verbatim copy of it. *)

(* --- printing --------------------------------------------------------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20
let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

let escape_string b s =
  Buffer.add_char b '"';
  (* Unescaped runs go in with one [add_substring] each; most strings
     are a single run. *)
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring b s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b (hex_digit (Char.code c lsr 4));
          Buffer.add_char b (hex_digit (Char.code c land 15))
    end
  done;
  Buffer.add_substring b s !run (String.length s - !run);
  Buffer.add_char b '"'

(* Decimal digits of [n <= 0], most significant first.  Working on the
   non-positive side covers [min_int], whose negation overflows. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b i
  end
  else add_neg_digits b (-i)

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let spaces = String.make 64 ' '

let rec add_spaces b n =
  if n <= 64 then Buffer.add_substring b spaces 0 n
  else begin
    Buffer.add_string b spaces;
    add_spaces b (n - 64)
  end

let nl b ~minify indent =
  if not minify then begin
    Buffer.add_char b '\n';
    add_spaces b indent
  end

(* A value printed whole: a scalar or an empty container. *)
let leaf b = function
  | Null -> Buffer.add_string b "null"
  | Bool bo -> Buffer.add_string b (if bo then "true" else "false")
  | Int i -> add_int b i
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (float_repr f)
      else
        (* JSON has no NaN/inf; null is the conventional stand-in. *)
        Buffer.add_string b "null"
  | String s -> escape_string b s
  | List _ -> Buffer.add_string b "[]"
  | Obj _ -> Buffer.add_string b "{}"

(* The containers still open around the value being printed, innermost
   first: the elements or members after it, their indentation, and the
   containers around them.  Printing keeps this stack itself, one block
   per container entered, rather than on the call stack, so no nesting
   depth can overflow it. *)
type open_containers =
  | Top
  | Elements of t list * int * open_containers
  | Members of (string * t) list * int * open_containers

(* [value b ~minify indent up v] prints [v] at [indent], then the rest
   of the containers [up].  Every call below is a tail call. *)
let rec value b ~minify indent up = function
  | List (_ :: _ as vs) ->
      Buffer.add_char b '[';
      elements b ~minify (indent + 2) up ~first:true vs
  | Obj (_ :: _ as ms) ->
      Buffer.add_char b '{';
      members b ~minify (indent + 2) up ~first:true ms
  | v ->
      leaf b v;
      close b ~minify up

(* [elements b ~minify indent up ~first vs] prints the list elements
   [vs], then closes their list. *)
and elements b ~minify indent up ~first = function
  | [] ->
      nl b ~minify (indent - 2);
      Buffer.add_char b ']';
      close b ~minify up
  | v :: vs -> (
      if not first then Buffer.add_char b ',';
      nl b ~minify indent;
      match v with
      | List (_ :: _) | Obj (_ :: _) ->
          value b ~minify indent (Elements (vs, indent, up)) v
      | v ->
          leaf b v;
          elements b ~minify indent up ~first:false vs)

and members b ~minify indent up ~first = function
  | [] ->
      nl b ~minify (indent - 2);
      Buffer.add_char b '}';
      close b ~minify up
  | (k, v) :: ms -> (
      if not first then Buffer.add_char b ',';
      nl b ~minify indent;
      escape_string b k;
      Buffer.add_string b (if minify then ":" else ": ");
      match v with
      | List (_ :: _) | Obj (_ :: _) ->
          value b ~minify indent (Members (ms, indent, up)) v
      | v ->
          leaf b v;
          members b ~minify indent up ~first:false ms)

(* The innermost open container's current value is printed: go on
   with the values after it. *)
and close b ~minify = function
  | Top -> ()
  | Elements (vs, indent, up) -> elements b ~minify indent up ~first:false vs
  | Members (ms, indent, up) -> members b ~minify indent up ~first:false ms

let to_string ?(minify = false) v =
  (* Requests and journal records fit without growing.  1 KB is still a
     minor-heap block; a 4 KB one goes to the major heap, which made
     small documents 3x slower to print. *)
  let b = Buffer.create 1024 in
  value b ~minify 0 Top v;
  Buffer.contents b

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* --- parsing ---------------------------------------------------------- *)

exception Parse of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  (* [at c]: the current character is [c].  Every test reads the input
     in place; nothing is allocated per character. *)
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if at c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    let i = ref 0 in
    if !pos + len <= n then
      while !i < len && s.[!pos + !i] = word.[!i] do
        incr i
      done;
    if !i = len then begin
      pos := !pos + len;
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
  (* The rest of a string that contains an escape, from the first
     backslash on, decoded through [b]. *)
  let rec escaped b =
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
        escaped b
    | c when Char.code c < 0x20 -> fail "control character in string"
    | c ->
        Buffer.add_char b c;
        advance ();
        escaped b
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    (* Scan the plain prefix; a string without escapes is one slice. *)
    while
      !pos < n
      &&
      let c = String.unsafe_get s !pos in
      c <> '"' && c <> '\\' && Char.code c >= 0x20
    do
      advance ()
    done;
    if at '"' then begin
      advance ();
      String.sub s start (!pos - start - 1)
    end
    else if at '\\' then begin
      let b = Buffer.create (!pos - start + 16) in
      Buffer.add_substring b s start (!pos - start);
      escaped b;
      Buffer.contents b
    end
    else if !pos >= n then fail "unterminated string"
    else fail "control character in string"
  in
  let digits () =
    let d0 = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      advance ()
    done;
    if !pos = d0 then fail "expected digit"
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if at '-' then advance ();
    digits ();
    if at '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    if at 'e' || at 'E' then begin
      is_float := true;
      advance ();
      if at '+' || at '-' then advance ();
      digits ()
    end;
    let len = !pos - start in
    if !is_float then Float (float_of_string (String.sub s start len))
    else if len <= 18 then begin
      (* At most 18 digits: below max_int, so no overflow check. *)
      let neg = s.[start] = '-' in
      let v = ref 0 in
      for i = (if neg then start + 1 else start) to !pos - 1 do
        v := (!v * 10) + (Char.code (String.unsafe_get s i) - 48)
      done;
      Int (if neg then - !v else !v)
    end
    else
      let text = String.sub s start len in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' ->
        advance ();
        skip_ws ();
        if at '}' then begin
          advance ();
          Obj []
        end
        else Obj (members [])
    | '[' ->
        advance ();
        skip_ws ();
        if at ']' then begin
          advance ();
          List []
        end
        else List (elements [])
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  and members acc =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    let v = parse_value () in
    skip_ws ();
    if at ',' then begin
      advance ();
      members ((k, v) :: acc)
    end
    else begin
      if not (at '}') then fail "expected ',' or '}'";
      advance ();
      List.rev ((k, v) :: acc)
    end
  and elements acc =
    let v = parse_value () in
    skip_ws ();
    if at ',' then begin
      advance ();
      elements (v :: acc)
    end
    else begin
      if not (at ']') then fail "expected ',' or ']'";
      advance ();
      List.rev (v :: acc)
    end
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
