(* Validate that each argument file parses as JSON (one document per
   file, or one per line when the file looks like JSON Lines), and that
   every document survives a round-trip through the library's printer:
   [parse (to_string ~minify:true v) = Ok v].  Exits nonzero on the
   first failure; a standalone linter for reports and
   bench_output.json. *)

module Json = Ctam_util.Json

let roundtrips v = Json.parse (Json.to_string ~minify:true v) = Ok v

let check_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let fail msg =
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
  in
  let check_value what v =
    if not (roundtrips v) then
      fail (Printf.sprintf "%s: does not survive print and reparse" what)
  in
  let check_doc what doc =
    match Json.parse doc with
    | Ok v -> check_value what v
    | Error e -> fail (Printf.sprintf "%s: %s" what e)
  in
  match Json.parse s with
  | Ok v -> check_value "document" v
  | Error whole_err -> (
      (* Maybe JSON Lines: every non-empty line must parse on its own. *)
      let lines =
        String.split_on_char '\n' s
        |> List.filter (fun l -> String.trim l <> "")
      in
      match lines with
      | _ :: _ :: _ ->
          List.iteri
            (fun i l -> check_doc (Printf.sprintf "line %d" (i + 1)) l)
            lines
      | _ -> fail whole_err)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then (
    prerr_endline "usage: json_check FILE...";
    exit 2);
  List.iter check_file args;
  Printf.printf "json_check: %d file(s) ok\n" (List.length args)
