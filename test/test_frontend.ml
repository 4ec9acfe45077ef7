(* Tests for the DSL frontend: lexer, parser, lowering diagnostics. *)

open Ctam_frontend
open Ctam_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let contains ~affix s = Astring.String.is_infix ~affix s

let sample =
  {|
program demo;
double A[100][102];
double B[210];

// the Figure 4 loop of the paper
parallel for (i1 = 0; i1 < 99; i1++)
  for (i2 = 2; i2 < 102; i2++)
    A[i1+1][i2-1] = A[i1][i2-2] + 0.5;

for (j = 4; j <= 200; j++)
  B[j] = B[j] + B[2*j - 190] + 1.0;
|}

(* --- lexer ---------------------------------------------------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "for (i = 0; i < 10; i++) A[i] = 0.5;" in
  let kinds = List.map (fun t -> t.Token.tok) toks in
  check_bool "starts with for" true (List.hd kinds = Token.KW_FOR);
  check_bool "has plusplus" true (List.mem Token.PLUSPLUS kinds);
  check_bool "has float" true (List.mem (Token.FLOAT 0.5) kinds);
  check_bool "ends with EOF" true
    (List.nth kinds (List.length kinds - 1) = Token.EOF)

let test_lexer_comments () =
  let toks = Lexer.tokenize "program /* block\ncomment */ p; // line\n" in
  check_int "token count" 4 (List.length toks) (* program, p, ;, EOF *)

let test_lexer_positions () =
  let toks = Lexer.tokenize "program\n  p;" in
  match toks with
  | _ :: { tok = Token.IDENT "p"; pos } :: _ ->
      check_int "line" 2 pos.Token.line;
      check_int "col" 3 pos.Token.col
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_errors () =
  check_bool "illegal char raises" true
    (try
       ignore (Lexer.tokenize "program p; @");
       false
     with Parse_error.Error (_, _) -> true);
  check_bool "unterminated comment" true
    (try
       ignore (Lexer.tokenize "/* oops");
       false
     with Parse_error.Error (_, _) -> true)

let test_lexer_malformed_number () =
  (* Regression: [123abc] used to lex as [INT 123; IDENT abc], silently
     mangling a typo like [10x] into two tokens the parser might
     accept.  It must be a positioned error at the number. *)
  (match Lexer.tokenize "for (i = 0; i < 123abc; i++) A[i] = 0.5;" with
  | _ -> Alcotest.fail "123abc must not tokenize"
  | exception Parse_error.Error (pos, msg) ->
      check_int "error line" 1 pos.Token.line;
      check_int "error col" 17 pos.Token.col;
      check_bool "message names the literal" true
        (Astring.String.is_infix ~affix:"123" msg));
  (* Same for a float literal glued to a letter. *)
  (match Lexer.tokenize "x = 1.5e;" with
  | _ -> Alcotest.fail "1.5e must not tokenize"
  | exception Parse_error.Error (_, _) -> ());
  (* A number legitimately followed by an operator still lexes. *)
  let toks = Lexer.tokenize "A[2*i]" in
  check_bool "2*i fine" true
    (List.exists (fun t -> t.Token.tok = Token.INT 2) toks)

(* --- parser --------------------------------------------------------- *)

let test_parse_program () =
  let ast = Parser.parse sample in
  Alcotest.(check string) "name" "demo" ast.Ast.prog_name;
  check_int "decls" 2 (List.length ast.Ast.decls);
  check_int "nests" 2 (List.length ast.Ast.nests);
  let n0 = List.hd ast.Ast.nests in
  check_bool "parallel flag" true n0.Ast.nest_parallel;
  let n1 = List.nth ast.Ast.nests 1 in
  check_bool "second not parallel" false n1.Ast.nest_parallel

let expect_syntax_error src =
  try
    ignore (Parser.parse src);
    Alcotest.fail "expected syntax error"
  with Parse_error.Error (_, _) -> ()

let test_parse_errors () =
  expect_syntax_error "program; double A[4];";
  expect_syntax_error "program p; double A; for (i=0;i<4;i++) A[i]=0;";
  expect_syntax_error "program p; double A[4]; for (i=0;j<4;i++) A[i]=0;";
  expect_syntax_error "program p; double A[4]; for (i=0;i<4;j++) A[i]=0;";
  expect_syntax_error "program p; double A[4];";
  expect_syntax_error "program p; double A[4]; for (i=0;i<4;i++) { }"

(* An expression deeper than the parser's bound is refused with a
   positioned error at the token that crosses it, long before lowering
   or the parser itself could overflow the stack.  Each shape nests
   200,000 levels; [crossing] is the offset of the offending token in
   the source. *)
let deep_prefix = "program p; double A[4]; for (i = 0; i < 4; i++) "

let expect_too_deep ~lhs ~rhs ~crossing =
  let src = deep_prefix ^ lhs ^ " = " ^ rhs ^ ";" in
  match Parser.parse src with
  | _ -> Alcotest.fail "a 200,000-level expression must not parse"
  | exception Parse_error.Error (pos, msg) ->
      check_bool "message names the bound" true
        (contains ~affix:"nested deeper than 1000 levels" msg);
      check_int "error line" 1 pos.Token.line;
      check_int "error col"
        (String.length deep_prefix + String.length lhs + 3 + crossing + 1)
        pos.Token.col

let n_deep = 200_000

(* Offset of the [k]-th (1-based) occurrence of [c] in [s]. *)
let nth_index s c k =
  let rec go i k =
    if s.[i] <> c then go (i + 1) k else if k = 1 then i else go (i + 1) (k - 1)
  in
  go 0 k

let test_deep_parentheses () =
  let rhs = String.make n_deep '(' ^ "1.0" ^ String.make n_deep ')' in
  expect_too_deep ~lhs:"A[i]" ~rhs ~crossing:1000

let test_deep_sum () =
  let rhs =
    "1.0" ^ String.concat "" (List.init (n_deep - 1) (fun _ -> " + 1.0"))
  in
  expect_too_deep ~lhs:"A[i]" ~rhs ~crossing:(nth_index rhs '+' 1001)

let test_deep_negation () =
  let rhs = String.make n_deep '-' ^ "1.0" in
  expect_too_deep ~lhs:"A[i]" ~rhs ~crossing:1000

(* The subscript is one level, so its sum crosses one operator sooner. *)
let test_deep_subscript_sum () =
  let sub =
    "i" ^ String.concat "" (List.init (n_deep - 1) (fun _ -> " + 1"))
  in
  let rhs = "A[" ^ sub ^ "]" in
  expect_too_deep ~lhs:"A[i]" ~rhs ~crossing:(2 + nth_index sub '+' 1000)

(* Loops nest 1,000 deep at most: the [for] that opens the 1,001st
   level is refused at its position, and 1,000 levels parse. *)
let test_deep_loops () =
  let prefix = "program p; double A[4]; " and loop = "for (i = 0; i < 4; i++) " in
  let nest n =
    prefix ^ String.concat "" (List.init n (fun _ -> loop)) ^ "A[i] = 1.0;"
  in
  ignore (Parser.parse (nest 1000));
  match Parser.parse (nest 2000) with
  | _ -> Alcotest.fail "2,000 nested loops must not parse"
  | exception Parse_error.Error (pos, msg) ->
      check_bool "message names the bound" true
        (contains ~affix:"loops nested deeper than 1000 levels" msg);
      check_int "error line" 1 pos.Token.line;
      check_int "error col"
        (String.length prefix + (1000 * String.length loop) + 1)
        pos.Token.col

(* --- lowering ------------------------------------------------------- *)

let test_lower_basic () =
  let p = Lower.compile sample in
  check_int "arrays" 2 (List.length p.Program.arrays);
  check_int "nests" 2 (List.length p.Program.nests);
  let n0 = List.hd p.Program.nests in
  check_int "depth" 2 (Nest.depth n0);
  check_int "trip count" (99 * 100) (Nest.trip_count n0);
  check_bool "parallel" true n0.Nest.parallel;
  let writes = List.filter Reference.is_write (Nest.refs n0) in
  check_int "one write" 1 (List.length writes);
  Alcotest.(check (array int))
    "write target" [| 5; 6 |]
    (Reference.target (List.hd writes) [| 4; 7 |])

let expect_lower_error src =
  try
    ignore (Lower.compile src);
    Alcotest.fail "expected lowering error"
  with Parse_error.Error (_, _) -> ()

let test_lower_errors () =
  expect_lower_error
    "program p; double A[10][10]; for (i=0;i<10;i++) for (j=0;j<10;j++) A[i*j][j] = 1.0;";
  expect_lower_error "program p; double A[10]; for (i=0;i<10;i++) A[k] = 1.0;";
  expect_lower_error
    "program p; double A[10][10]; for (i=0;i<j;i++) for (j=0;j<10;j++) A[i][j] = 1.0;";
  expect_lower_error
    "program p; double A[10][10]; for (i=0;i<10;i++) for (i=0;i<10;i++) A[i][i] = 1.0;";
  expect_lower_error "program p; double A[10]; for (i=0;i<10;i++) Z[i] = 1.0;";
  expect_lower_error
    "program p; double A[10]; for (i=0;i<10;i++) A[i][i] = 1.0;"

let test_lower_triangular () =
  let p =
    Lower.compile
      "program t; double A[10][10]; for (i=0;i<10;i++) for (j=0;j<=i;j++) A[i][j] = 1.0;"
  in
  let n = List.hd p.Program.nests in
  check_int "triangular trip" 55 (Nest.trip_count n)

let test_lower_affine_arith () =
  let p =
    Lower.compile
      "program a; double A[100]; for (i=0;i<20;i++) A[2*i + 3] = A[(i+1)*2] + 1.0;"
  in
  let n = List.hd p.Program.nests in
  let refs = Nest.refs n in
  let read = List.hd (List.filter (fun r -> not (Reference.is_write r)) refs) in
  Alcotest.(check (array int)) "(i+1)*2 at i=4" [| 10 |] (Reference.target read [| 4 |])

let test_error_render () =
  let src = "program p; double A[10]; for (i=0;i<10;i++) A[k] = 1.0;" in
  try
    ignore (Lower.compile src);
    Alcotest.fail "expected error"
  with Parse_error.Error (pos, msg) ->
    let rendered = Parse_error.render ~source:src pos msg in
    check_bool "mentions k" true (contains ~affix:"'k'" rendered);
    check_bool "has caret" true (contains ~affix:"^" rendered)

let test_lower_matches_builder () =
  let src =
    "program g; double U[12][12]; double V[12][12];\n\
     parallel for (i = 1; i <= 10; i++) for (j = 1; j <= 10; j++)\n\
     V[i][j] = U[i-1][j] + U[i+1][j] + U[i][j-1] + U[i][j+1];"
  in
  let p = Lower.compile src in
  let n = List.hd p.Program.nests in
  check_int "trip" 100 (Nest.trip_count n);
  check_int "refs" 5 (List.length (Nest.refs n))

(* --- Unparse ---------------------------------------------------------- *)

let structurally_equal p1 p2 =
  let open Ctam_ir in
  List.length p1.Program.arrays = List.length p2.Program.arrays
  && List.for_all2 Array_decl.equal p1.Program.arrays p2.Program.arrays
  && List.length p1.Program.nests = List.length p2.Program.nests
  && List.for_all2
       (fun n1 n2 ->
         n1.Nest.parallel = n2.Nest.parallel
         && Nest.trip_count n1 = Nest.trip_count n2
         && List.length (Nest.refs n1) = List.length (Nest.refs n2)
         && List.for_all2 Reference.equal (Nest.refs n1) (Nest.refs n2))
       p1.Program.nests p2.Program.nests

let test_unparse_roundtrip_suite () =
  List.iter
    (fun k ->
      let p = Ctam_workloads.Kernel.small_program k in
      let text = Unparse.program p in
      let p' = Lower.compile text in
      check_bool (k.Ctam_workloads.Kernel.name ^ " round-trips") true
        (structurally_equal p p'))
    Ctam_workloads.Suite.all

let test_unparse_triangular () =
  let src =
    "program t; double A[12][12];\n\
     parallel for (i = 0; i < 10; i++) for (j = 0; j <= i; j++) A[i][j] = 1.0;"
  in
  let p = Lower.compile src in
  let p' = Lower.compile (Unparse.program p) in
  check_bool "triangular round-trips" true (structurally_equal p p')

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "malformed number" `Quick
            test_lexer_malformed_number;
        ] );
      ( "parser",
        [
          Alcotest.test_case "program" `Quick test_parse_program;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
        ] );
      ( "depth",
        [
          Alcotest.test_case "nested parentheses" `Quick test_deep_parentheses;
          Alcotest.test_case "sum in the body" `Quick test_deep_sum;
          Alcotest.test_case "unary minuses" `Quick test_deep_negation;
          Alcotest.test_case "sum in a subscript" `Quick
            test_deep_subscript_sum;
          Alcotest.test_case "nested loops" `Quick test_deep_loops;
        ] );
      ( "lower",
        [
          Alcotest.test_case "basic" `Quick test_lower_basic;
          Alcotest.test_case "errors" `Quick test_lower_errors;
          Alcotest.test_case "triangular" `Quick test_lower_triangular;
          Alcotest.test_case "affine arithmetic" `Quick test_lower_affine_arith;
          Alcotest.test_case "error rendering" `Quick test_error_render;
          Alcotest.test_case "builder equivalence" `Quick test_lower_matches_builder;
        ] );
      ( "unparse",
        [
          Alcotest.test_case "suite round-trip" `Quick test_unparse_roundtrip_suite;
          Alcotest.test_case "triangular round-trip" `Quick test_unparse_triangular;
        ] );
    ]
