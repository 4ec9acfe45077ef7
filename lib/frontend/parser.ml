open Token
open Ast

(* [depth]: the parentheses, minus signs and subscripts enclosing the
   expression being parsed; [loops]: the loops enclosing the body being
   parsed. *)
type state = {
  mutable toks : Token.spanned list;
  mutable depth : int;
  mutable loops : int;
}

let peek st =
  match st.toks with
  | t :: _ -> t
  | [] -> { tok = EOF; pos = { line = 0; col = 0 } }

let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st tok =
  let t = peek st in
  if t.tok = tok then advance st
  else
    Parse_error.fail t.pos "expected %s but found %s" (Token.describe tok)
      (Token.describe t.tok)

let expect_ident st =
  let t = peek st in
  match t.tok with
  | IDENT s ->
      advance st;
      (s, t.pos)
  | other ->
      Parse_error.fail t.pos "expected identifier but found %s"
        (Token.describe other)

let expect_int st =
  let t = peek st in
  match t.tok with
  | INT n ->
      advance st;
      n
  | other ->
      Parse_error.fail t.pos "expected integer but found %s"
        (Token.describe other)

(* --- nesting depth --- *)

(* Expressions nest at most this deep, counting parentheses, minus
   signs, subscripts and every operator of a chain, and loops nest at
   most this deep too: parsing, lowering and unparsing recurse once per
   level, so an unbounded depth would let a source text overflow the
   stack.  No example or workload nests deeper than 10. *)
let max_depth = 1000

(* Each parser below returns an expression with its height, the levels
   it nests below its own top; a node is refused at [pos] when its
   height and the levels around it pass [max_depth]. *)
let check_depth st pos h =
  if st.depth + h > max_depth then
    Parse_error.fail pos "expression nested deeper than %d levels" max_depth

(* [nested st pos f] parses [f] one level further in, below the
   parenthesis, minus sign or subscript at [pos]. *)
let nested st pos f =
  check_depth st pos 1;
  st.depth <- st.depth + 1;
  let e, h = f () in
  st.depth <- st.depth - 1;
  (e, h + 1)

(* The height of a binary node over operands of heights [hl] and [hr],
   its operator at [pos]. *)
let binop st pos hl hr =
  let h = 1 + max hl hr in
  check_depth st pos h;
  h

(* --- subscript / bound expressions (affine-candidate syntax) --- *)

let rec parse_aexpr st =
  let lhs = parse_aterm st in
  parse_aexpr_rest st lhs

and parse_aexpr_rest st (lhs, hl) =
  let t = peek st in
  match t.tok with
  | PLUS ->
      advance st;
      let rhs, hr = parse_aterm st in
      parse_aexpr_rest st (A_add (lhs, rhs), binop st t.pos hl hr)
  | MINUS ->
      advance st;
      let rhs, hr = parse_aterm st in
      parse_aexpr_rest st (A_sub (lhs, rhs), binop st t.pos hl hr)
  | _ -> (lhs, hl)

and parse_aterm st =
  let lhs = parse_afactor st in
  parse_aterm_rest st lhs

and parse_aterm_rest st (lhs, hl) =
  let t = peek st in
  match t.tok with
  | STAR ->
      advance st;
      let rhs, hr = parse_afactor st in
      parse_aterm_rest st (A_mul (lhs, rhs, t.pos), binop st t.pos hl hr)
  | _ -> (lhs, hl)

and parse_afactor st =
  let t = peek st in
  match t.tok with
  | INT n ->
      advance st;
      (A_int n, 0)
  | IDENT s ->
      advance st;
      (A_var (s, t.pos), 0)
  | MINUS ->
      advance st;
      let e, h = nested st t.pos (fun () -> parse_afactor st) in
      (A_neg e, h)
  | LPAREN ->
      advance st;
      nested st t.pos (fun () ->
          let e = parse_aexpr st in
          expect st RPAREN;
          e)
  | other ->
      Parse_error.fail t.pos "expected subscript expression but found %s"
        (Token.describe other)

(* --- body (floating-point) expressions --- *)

let parse_subs st =
  let rec go acc h =
    let t = peek st in
    match t.tok with
    | LBRACKET ->
        advance st;
        let s, hs =
          nested st t.pos (fun () ->
              let s = parse_aexpr st in
              expect st RBRACKET;
              s)
        in
        go (s :: acc) (max h hs)
    | _ -> (List.rev acc, h)
  in
  go [] 0

let rec parse_expr st =
  let lhs = parse_term st in
  parse_expr_rest st lhs

and parse_expr_rest st (lhs, hl) =
  let t = peek st in
  match t.tok with
  | PLUS ->
      advance st;
      let rhs, hr = parse_term st in
      parse_expr_rest st (E_add (lhs, rhs), binop st t.pos hl hr)
  | MINUS ->
      advance st;
      let rhs, hr = parse_term st in
      parse_expr_rest st (E_sub (lhs, rhs), binop st t.pos hl hr)
  | _ -> (lhs, hl)

and parse_term st =
  let lhs = parse_factor st in
  parse_term_rest st lhs

and parse_term_rest st (lhs, hl) =
  let t = peek st in
  match t.tok with
  | STAR ->
      advance st;
      let rhs, hr = parse_factor st in
      parse_term_rest st (E_mul (lhs, rhs), binop st t.pos hl hr)
  | SLASH ->
      advance st;
      let rhs, hr = parse_factor st in
      parse_term_rest st (E_div (lhs, rhs), binop st t.pos hl hr)
  | _ -> (lhs, hl)

and parse_factor st =
  let t = peek st in
  match t.tok with
  | FLOAT f ->
      advance st;
      (E_num f, 0)
  | INT n ->
      advance st;
      (E_num (float_of_int n), 0)
  | MINUS ->
      advance st;
      let e, h = nested st t.pos (fun () -> parse_factor st) in
      (E_sub (E_num 0., e), h)
  | LPAREN ->
      advance st;
      nested st t.pos (fun () ->
          let e = parse_expr st in
          expect st RPAREN;
          e)
  | IDENT s -> (
      advance st;
      match (peek st).tok with
      | LBRACKET ->
          let subs, h = parse_subs st in
          (E_ref (s, subs, t.pos), h)
      | _ -> (E_index (s, t.pos), 0))
  | other ->
      Parse_error.fail t.pos "expected expression but found %s"
        (Token.describe other)

(* --- statements, loops, declarations --- *)

let parse_stmt st =
  let name, pos = expect_ident st in
  let subs, _ = parse_subs st in
  if subs = [] then Parse_error.fail pos "assignment target must be an array";
  expect st ASSIGN;
  let rhs, _ = parse_expr st in
  expect st SEMI;
  { lhs_array = name; lhs_subs = subs; lhs_pos = pos; rhs }

let rec parse_loop st =
  if st.loops = max_depth then
    Parse_error.fail (peek st).pos "loops nested deeper than %d levels"
      max_depth;
  expect st KW_FOR;
  expect st LPAREN;
  let var, var_pos = expect_ident st in
  expect st ASSIGN;
  let lo, _ = parse_aexpr st in
  expect st SEMI;
  let var2, var2_pos = expect_ident st in
  if var2 <> var then
    Parse_error.fail var2_pos "loop condition tests '%s', expected '%s'" var2
      var;
  let strict =
    match (peek st).tok with
    | LT ->
        advance st;
        true
    | LE ->
        advance st;
        false
    | other ->
        Parse_error.fail (peek st).pos "expected '<' or '<=' but found %s"
          (Token.describe other)
  in
  let hi, _ = parse_aexpr st in
  expect st SEMI;
  let var3, var3_pos = expect_ident st in
  if var3 <> var then
    Parse_error.fail var3_pos "loop increments '%s', expected '%s'" var3 var;
  expect st PLUSPLUS;
  expect st RPAREN;
  st.loops <- st.loops + 1;
  let body = parse_body st in
  st.loops <- st.loops - 1;
  { var; var_pos; lo; hi; strict; body }

and parse_body st =
  match (peek st).tok with
  | KW_FOR -> B_loop (parse_loop st)
  | LBRACE ->
      advance st;
      let rec go acc =
        match (peek st).tok with
        | RBRACE ->
            advance st;
            List.rev acc
        | _ -> go (parse_stmt st :: acc)
      in
      let stmts = go [] in
      if stmts = [] then
        Parse_error.fail (peek st).pos "empty loop body";
      B_stmts stmts
  | _ -> B_stmts [ parse_stmt st ]

let parse_type st =
  let t = peek st in
  match t.tok with
  | KW_DOUBLE ->
      advance st;
      Some T_double
  | KW_FLOAT ->
      advance st;
      Some T_float
  | KW_INT ->
      advance st;
      Some T_int
  | KW_CHAR ->
      advance st;
      Some T_char
  | _ -> None

let parse_decl st ty =
  let name, pos = expect_ident st in
  let rec dims acc =
    match (peek st).tok with
    | LBRACKET ->
        advance st;
        let n = expect_int st in
        expect st RBRACKET;
        dims (n :: acc)
    | _ -> List.rev acc
  in
  let ds = dims [] in
  if ds = [] then Parse_error.fail pos "array '%s' needs dimensions" name;
  expect st SEMI;
  { arr_name = name; arr_ty = ty; arr_dims = ds; arr_pos = pos }

let parse_nest st =
  let t = peek st in
  let parallel =
    if t.tok = KW_PARALLEL then begin
      advance st;
      true
    end
    else false
  in
  let loop = parse_loop st in
  { nest_parallel = parallel; nest_loop = loop; nest_pos = t.pos }

let parse_tokens toks =
  let st = { toks; depth = 0; loops = 0 } in
  expect st KW_PROGRAM;
  let name, _ = expect_ident st in
  expect st SEMI;
  let rec decls acc =
    match parse_type st with
    | Some ty -> decls (parse_decl st ty :: acc)
    | None -> List.rev acc
  in
  let decls = decls [] in
  let rec nests acc =
    match (peek st).tok with
    | KW_FOR | KW_PARALLEL -> nests (parse_nest st :: acc)
    | EOF -> List.rev acc
    | other ->
        Parse_error.fail (peek st).pos
          "expected 'for', 'parallel' or end of input but found %s"
          (Token.describe other)
  in
  let nests = nests [] in
  if nests = [] then
    Parse_error.fail (peek st).pos "program has no loop nests";
  { prog_name = name; decls; nests }

let parse src = parse_tokens (Lexer.tokenize src)
