exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* --- minimal s-expression reader ------------------------------------- *)

type sexp = Atom of string | List of sexp list

let tokenize text =
  let toks = ref [] in
  let n = String.length text in
  let i = ref 0 in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := `Atom (Buffer.contents buf) :: !toks;
      Buffer.clear buf
    end
  in
  while !i < n do
    (match text.[!i] with
    | '(' ->
        flush ();
        toks := `L :: !toks
    | ')' ->
        flush ();
        toks := `R :: !toks
    | ';' ->
        flush ();
        while !i < n && text.[!i] <> '\n' do
          incr i
        done
    | '"' ->
        flush ();
        incr i;
        while !i < n && text.[!i] <> '"' do
          Buffer.add_char buf text.[!i];
          incr i
        done;
        if !i >= n then fail "unterminated string";
        (* A closed quote always yields an atom — [flush] alone would
           silently drop the empty string [""]. *)
        toks := `Atom (Buffer.contents buf) :: !toks;
        Buffer.clear buf
    | ' ' | '\t' | '\n' | '\r' -> flush ()
    | c -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !toks

(* [open_] holds the items read so far of every list still open,
   innermost first, so neither the nesting nor the length of the input
   grows the call stack. *)
let read_sexp text =
  let finish sexp rest =
    if rest = [] then sexp else fail "trailing input after the machine form"
  in
  let rec go open_ toks =
    match (toks, open_) with
    | `L :: rest, _ -> go ([] :: open_) rest
    | `Atom a :: rest, [] -> finish (Atom a) rest
    | `Atom a :: rest, items :: outer -> go ((Atom a :: items) :: outer) rest
    | `R :: _, [] -> fail "unexpected ')'"
    | `R :: rest, [ items ] -> finish (List (List.rev items)) rest
    | `R :: rest, items :: parent :: outer ->
        go ((List (List.rev items) :: parent) :: outer) rest
    | [], [] -> fail "unexpected end of input"
    | [], _ :: _ -> fail "missing ')'"
  in
  go [] (tokenize text)

(* --- interpretation --------------------------------------------------- *)

let parse_size s =
  let n = String.length s in
  if n = 0 then fail "empty size";
  let mult, digits =
    match s.[n - 1] with
    | 'K' | 'k' -> (1024, String.sub s 0 (n - 1))
    | 'M' | 'm' -> (1024 * 1024, String.sub s 0 (n - 1))
    | 'G' | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
    | _ -> (1, s)
  in
  match int_of_string_opt digits with
  | Some v when v > 0 -> v * mult
  | _ -> fail "bad size '%s'" s

let as_int what = function
  | Atom a -> (
      match int_of_string_opt a with
      | Some v -> v
      | None -> fail "%s: expected an integer, got '%s'" what a)
  | List _ -> fail "%s: expected an integer" what

let as_float what = function
  | Atom a -> (
      match float_of_string_opt a with
      | Some v -> v
      | None -> fail "%s: expected a number, got '%s'" what a)
  | List _ -> fail "%s: expected a number" what

let field name items =
  List.find_map
    (function
      | List (Atom key :: value) when key = name -> Some value
      | _ -> None)
    items

let field1 name items =
  match field name items with
  | Some [ v ] -> Some v
  | Some _ -> fail "(%s ...) takes exactly one value" name
  | None -> None

let require1 name items =
  match field1 name items with
  | Some v -> v
  | None -> fail "missing (%s ...)" name

let max_cores = 65536

let parse text =
  let next_core = ref 0 in
  (* Bounds the work a [(cores N)] form can ask for. *)
  let fresh_core () =
    let c = !next_core in
    if c >= max_cores then fail "more than %d cores" max_cores;
    incr next_core;
    Topology.Core c
  in
  let rec parse_node = function
    | List (Atom "core" :: rest) -> (
        match rest with
        | [] -> [ fresh_core () ]
        | [ Atom id ] -> (
            match int_of_string_opt id with
            | Some c ->
                next_core := max !next_core (c + 1);
                [ Topology.Core c ]
            | None -> fail "(core ...): bad id '%s'" id)
        | _ -> fail "(core) or (core ID)")
    | List (Atom "cores" :: rest) -> (
        match rest with
        | [ Atom n ] -> (
            match int_of_string_opt n with
            | Some n when n > 0 -> List.init n (fun _ -> fresh_core ())
            | _ -> fail "(cores N): bad count '%s'" n)
        | _ -> fail "(cores N)")
    | List (Atom "cache" :: Atom name :: rest) ->
        let level = as_int "level" (require1 "level" rest) in
        let size_bytes =
          match require1 "size" rest with
          | Atom s -> parse_size s
          | List _ -> fail "(size ...) expects an atom"
        in
        let assoc = as_int "assoc" (require1 "assoc" rest) in
        let line = as_int "line" (require1 "line" rest) in
        let latency = as_int "latency" (require1 "latency" rest) in
        let policy =
          match field1 "policy" rest with
          | None -> Policy.Lru
          | Some (Atom s) -> (
              match Policy.of_string s with
              | Ok p -> p
              | Error e -> fail "cache %s: %s" name e)
          | Some (List _) -> fail "(policy ...) expects an atom"
        in
        let children =
          List.concat_map parse_node
            (List.filter
               (function
                 | List
                     (Atom
                        ("level" | "size" | "assoc" | "line" | "latency"
                        | "policy")
                     :: _) ->
                     false
                 | _ -> true)
               rest)
        in
        if children = [] then fail "cache %s has no children" name;
        [
          Topology.Cache
            ( {
                Topology.cache_name = name;
                level;
                size_bytes;
                assoc;
                line;
                latency;
                policy;
              },
              children );
        ]
    | List (Atom kw :: _) -> fail "unknown form '%s'" kw
    | Atom a -> fail "unexpected atom '%s'" a
    | List (List _ :: _) | List [] -> fail "malformed form"
  in
  match read_sexp text with
  | List (Atom "machine" :: Atom name :: rest) -> (
      let clock = as_float "clock" (require1 "clock" rest) in
      let mem = as_int "mem" (require1 "mem" rest) in
      let roots =
        List.concat_map parse_node
          (List.filter
             (function
               | List (Atom ("clock" | "mem") :: _) -> false
               | _ -> true)
             rest)
      in
      if roots = [] then fail "machine has no caches";
      try Topology.make ~name ~clock_ghz:clock ~mem_latency:mem roots
      with Invalid_argument msg -> fail "%s" msg)
  | _ -> fail "expected (machine \"name\" (clock ...) (mem ...) <caches>)"

let to_text t =
  let buf = Buffer.create 512 in
  let rec node indent = function
    | Topology.Core c ->
        Buffer.add_string buf
          (Printf.sprintf "%s(core %d)\n" (String.make indent ' ') c)
    | Topology.Cache (p, children) ->
        (* (policy ...) is emitted only when it deviates from the LRU
           default, so pre-policy files round-trip byte-identically. *)
        Buffer.add_string buf
          (Printf.sprintf
             "%s(cache \"%s\" (level %d) (size %d) (assoc %d) (line %d) (latency %d)%s\n"
             (String.make indent ' ')
             p.Topology.cache_name p.Topology.level p.Topology.size_bytes
             p.Topology.assoc p.Topology.line p.Topology.latency
             (if Policy.equal p.Topology.policy Policy.Lru then ""
              else
                Printf.sprintf " (policy %s)"
                  (Policy.to_string p.Topology.policy)));
        List.iter (node (indent + 2)) children;
        Buffer.add_string buf (Printf.sprintf "%s)\n" (String.make indent ' '))
  in
  Buffer.add_string buf
    (Printf.sprintf "(machine \"%s\" (clock %g) (mem %d)\n" t.Topology.name
       t.Topology.clock_ghz t.Topology.mem_latency);
  List.iter (node 2) t.Topology.roots;
  Buffer.add_string buf ")\n";
  Buffer.contents buf
