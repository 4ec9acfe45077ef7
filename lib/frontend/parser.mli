(** Recursive-descent parser for the loop-nest DSL.

    Grammar (LL(1)):
    {v
    program  ::= "program" IDENT ";" decl* nest+
    decl     ::= type IDENT ("[" INT "]")+ ";"
    nest     ::= ["parallel"] loop
    loop     ::= "for" "(" IDENT "=" aexpr ";"
                          IDENT ("<" | "<=") aexpr ";"
                          IDENT "++" ")" body
    body     ::= loop | "{" stmt+ "}" | stmt
    stmt     ::= IDENT ("[" aexpr "]")+ "=" expr ";"
    v} *)

(** Parse a full program.  @raise Parse_error.Error on syntax errors,
    at the token where an expression nests deeper than 1,000 levels
    (parentheses, minus signs, subscripts and each operator of a chain
    count one each), and at the [for] that opens a 1,001st level of
    nested loops. *)
val parse : string -> Ast.program

(** Parse from a token list (exposed for tests). *)
val parse_tokens : Token.spanned list -> Ast.program
