type kind = Instr | Load | Store | Modify

type fields = {
  mutable kind : kind;
  mutable addr : int;
  mutable size : int;
  mutable core : int;
  mutable time : int;
}

type record = {
  kind : kind;
  addr : int;
  size : int;
  core : int option;
  time : int option;
}

let fields () : fields =
  { kind = Instr; addr = 0; size = 1; core = -1; time = -1 }

type line = Noise | Record | Malformed of string

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt
let sub b i j = Bytes.sub_string b i (j - i)

(* The line is parsed as [String.trim] of it, split into tokens at
   spaces and tabs.  Every scan below stays within [i, j), so no
   token is ever copied unless an error message quotes it. *)

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
let is_sep c = c = ' ' || c = '\t'

(* End of the token starting at [i]. *)
let token_end b i j =
  let k = ref i in
  while !k < j && not (is_sep (Bytes.unsafe_get b !k)) do incr k done;
  !k

(* Start of the next token at or after [i] ([j] when none). *)
let skip_seps b i j =
  let k = ref i in
  while !k < j && is_sep (Bytes.unsafe_get b !k) do incr k done;
  !k

(* Start of the token ending at [j]. *)
let token_start b i j =
  let k = ref j in
  while !k > i && not (is_sep (Bytes.unsafe_get b (!k - 1))) do decr k done;
  !k

(* End of the last token before [j] ([i] when none). *)
let seps_back b i j =
  let k = ref j in
  while !k > i && is_sep (Bytes.unsafe_get b (!k - 1)) do decr k done;
  !k

(* Each character's digit value, 255 for a character that is no
   digit in any radix up to 16. *)
let digit_values =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - 48)
      | 'a' .. 'f' -> Char.chr (i - 87)
      | 'A' .. 'F' -> Char.chr (i - 55)
      | _ -> '\255')

(* The value of the digit run [b.[i..j)] in [radix], or -1 when a
   character is not one of its digits.  Callers bound the run's length
   so that the value stays below max_int. *)
let digits radix b i j =
  let v = ref 0 and k = ref i in
  while !k < j && !v >= 0 do
    let d =
      Char.code
        (String.unsafe_get digit_values (Char.code (Bytes.unsafe_get b !k)))
    in
    v := if d < radix then (!v * radix) + d else -1;
    incr k
  done;
  !v

(* The value [int_of_string_opt] gives [b.[i..j)] when it is
   non-negative, else -1.  Runs of up to 18 decimal digits are read in
   place; any other token (a sign, a radix prefix, an underscore, a
   longer run, the empty token) is copied out and handed to the
   library, so both read the same numbers. *)
let nat b i j =
  let v = if j - i >= 1 && j - i <= 18 then digits 10 b i j else -1 in
  if v >= 0 then v
  else
    match int_of_string_opt (sub b i j) with Some v when v >= 0 -> v | _ -> -1

(* Lackey prints bare hex; the R/W form conventionally carries 0x.  The
   address [b.[i..j)] denotes, or -1: [int_of_string_opt ("0x" ^ body)]
   when non-negative, read in place for up to 15 hex digits. *)
let hex b i j =
  let i =
    if
      j - i > 2
      && Bytes.unsafe_get b i = '0'
      &&
      let c = Bytes.unsafe_get b (i + 1) in
      c = 'x' || c = 'X'
    then i + 2
    else i
  in
  if i = j then -1
  else
    let v = if j - i <= 15 then digits 16 b i j else -1 in
    if v >= 0 then v
    else
      match int_of_string_opt ("0x" ^ sub b i j) with
      | Some v when v >= 0 -> v
      | _ -> -1

let kind_of b i j =
  let k = if j - i = 1 then Bytes.unsafe_get b i else ' ' in
  match k with
  | 'I' -> Instr
  | 'L' | 'R' -> Load
  | 'S' | 'W' -> Store
  | 'M' -> Modify
  | _ -> bad "unknown record kind '%s'" (sub b i j)

(* Real Lackey output interleaves the trace with Valgrind's own
   chatter ([==pid==] and [--pid--] lines); those and [#] comments are
   noise in every mode, not malformed records. *)
let is_noise b lo hi =
  lo = hi
  ||
  let c = Bytes.unsafe_get b lo in
  c = '#'
  || ((c = '=' || c = '-') && hi - lo >= 2 && Bytes.unsafe_get b (lo + 1) = c)

(* [ADDR[,SIZE]] in [b.[i..j)]; the size is checked first. *)
let operand (f : fields) b i j =
  let comma = ref i in
  while !comma < j && Bytes.unsafe_get b !comma <> ',' do incr comma done;
  let comma = !comma in
  let size =
    if comma = j then 1
    else
      let v = nat b (comma + 1) j in
      if v <= 0 then bad "bad access size '%s'" (sub b (comma + 1) j);
      v
  in
  let addr = hex b i comma in
  if addr < 0 then bad "bad address '%s'" (sub b i comma);
  f.addr <- addr;
  f.size <- size

let parse (f : fields) b pos len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Lackey.parse";
  let lo = ref pos and hi = ref (pos + len) in
  while !lo < !hi && is_space (Bytes.unsafe_get b !lo) do incr lo done;
  while !hi > !lo && is_space (Bytes.unsafe_get b (!hi - 1)) do decr hi done;
  let lo = !lo and hi = !hi in
  if is_noise b lo hi then Noise
  else
    try
      (* Optional multi-core tag: a leading "N:". *)
      let e = token_end b lo hi in
      let c =
        if e - lo >= 2 && Bytes.unsafe_get b (e - 1) = ':' then nat b lo (e - 1)
        else -1
      in
      f.core <- c;
      (* The other tokens lie in [first, last). *)
      let first = skip_seps b (if c >= 0 then e else lo) hi in
      (* Optional trailing timestamp: "@T". *)
      let t = token_start b first hi in
      let last =
        if first < hi && Bytes.unsafe_get b t = '@' then begin
          let v = nat b (t + 1) hi in
          if v < 0 then bad "bad timestamp '%s'" (sub b t hi);
          f.time <- v;
          seps_back b first t
        end
        else begin
          f.time <- -1;
          hi
        end
      in
      if first = last then bad "empty record";
      let k = token_end b first last in
      let o = skip_seps b k last in
      if o = last then begin
        (* Raise the kind error first so "Z" reports the kind, not a
           missing operand. *)
        ignore (kind_of b first k);
        bad "missing address after '%s'" (sub b first k)
      end;
      let o_end = token_end b o last in
      if o_end < last then bad "malformed record '%s'" (sub b lo hi);
      f.kind <- kind_of b first k;
      operand f b o o_end;
      Record
    with Bad msg -> Malformed msg

let parse_line line : (record option, string) result =
  let f = fields () in
  match parse f (Bytes.unsafe_of_string line) 0 (String.length line) with
  | Noise -> Ok None
  | Malformed msg -> Error msg
  | Record ->
      let tag v = if v < 0 then None else Some v in
      Ok
        (Some
           { kind = f.kind; addr = f.addr; size = f.size; core = tag f.core;
             time = tag f.time })
