(* The Lackey line parser as it stood before it was rewritten to parse
   line slices in place, kept verbatim as the differential oracle for
   [Ctam_tracein.Lackey]: the rewrite must give every line this
   parser's record, or its exact error message. *)

type kind = Instr | Load | Store | Modify

type record = {
  kind : kind;
  addr : int;
  size : int;
  core : int option;
  time : int option;
}

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Real Lackey output interleaves the trace with Valgrind's own
   chatter ([==pid==] and [--pid--] lines); those and [#] comments are
   noise in every mode, not malformed records. *)
let is_noise line =
  String.length line = 0
  || line.[0] = '#'
  || (String.length line >= 2 && line.[0] = '=' && line.[1] = '=')
  || (String.length line >= 2 && line.[0] = '-' && line.[1] = '-')

(* Lackey prints bare hex; the R/W form conventionally carries 0x. *)
let hex_addr s =
  let body =
    if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      String.sub s 2 (String.length s - 2)
    else s
  in
  if body = "" then None
  else
    match int_of_string_opt ("0x" ^ body) with
    | Some v when v >= 0 -> Some v
    | _ -> None

let kind_of_token = function
  | "I" -> Instr
  | "L" | "R" -> Load
  | "S" | "W" -> Store
  | "M" -> Modify
  | t -> bad "unknown record kind '%s'" t

let split_tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_line line : (record option, string) result =
  let line = String.trim line in
  if is_noise line then Ok None
  else
    try
      let toks = split_tokens line in
      (* Optional multi-core tag: a leading "N:". *)
      let core, toks =
        match toks with
        | t :: rest when String.length t >= 2 && t.[String.length t - 1] = ':'
          -> (
            match int_of_string_opt (String.sub t 0 (String.length t - 1)) with
            | Some c when c >= 0 -> (Some c, rest)
            | _ -> (None, toks))
        | _ -> (None, toks)
      in
      (* Optional trailing timestamp: "@T". *)
      let time, toks =
        match List.rev toks with
        | t :: rest when String.length t >= 1 && t.[0] = '@' -> (
            match int_of_string_opt (String.sub t 1 (String.length t - 1)) with
            | Some v when v >= 0 -> (Some v, List.rev rest)
            | _ -> bad "bad timestamp '%s'" t)
        | _ -> (None, toks)
      in
      match toks with
      | [ k; operand ] ->
          let kind = kind_of_token k in
          let addr_s, size =
            match String.index_opt operand ',' with
            | None -> (operand, 1)
            | Some i ->
                let a = String.sub operand 0 i in
                let s =
                  String.sub operand (i + 1) (String.length operand - i - 1)
                in
                (match int_of_string_opt s with
                | Some v when v > 0 -> (a, v)
                | _ -> bad "bad access size '%s'" s)
          in
          let addr =
            match hex_addr addr_s with
            | Some a -> a
            | None -> bad "bad address '%s'" addr_s
          in
          Ok (Some { kind; addr; size; core; time })
      | [ k ] ->
          (* Raise the kind error first so "Z" reports the kind, not a
             missing operand. *)
          ignore (kind_of_token k);
          bad "missing address after '%s'" k
      | [] -> bad "empty record"
      | _ -> bad "malformed record '%s'" line
    with Bad msg -> Error msg
