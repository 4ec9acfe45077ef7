(* Validate a `bench/main.exe scale-sweep --json` emission (JSON-lines,
   one row per machine × scale × kernel × scheme): every scale_sweep
   row must carry positive exact cycle counts and speedups, every
   row's sampled-run cycle error must stay under [max_row_err], and
   their geometric mean under the geomean bound (default 5%, override
   with --max-geomean).  The sweep itself already asserts the streamed
   path bit-identical to the exact one (it exits nonzero on mismatch),
   so this checker gates the *approximate* half: set sampling staying
   inside its error budget.  Used by tools/check_scale.sh under
   `dune runtest`. *)

module J = Ctam_util.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("scale_check: " ^ m);
      exit 1)
    fmt

let num name j =
  match J.member name j with
  | Some (J.Int i) -> float_of_int i
  | Some (J.Float f) -> f
  | _ -> fail "row missing numeric member '%s'" name

(* A blow-up on one kernel can hide under the geomean.  The worst row
   documented in EXPERIMENTS.md is 15.4% (sp/Base at sweep scale 64);
   the quick subset's worst is 11.0% (equake/Base). *)
let max_row_err = 0.20

let () =
  let max_geomean = ref 0.05 in
  let file = ref None in
  let rec parse = function
    | [] -> ()
    | "--max-geomean" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0. -> max_geomean := f
        | _ -> fail "--max-geomean: bad value %S" v);
        parse rest
    | f :: rest ->
        (match !file with
        | None -> file := Some f
        | Some _ -> fail "usage: scale_check [--max-geomean F] FILE");
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let file = match !file with Some f -> f | None -> fail "no input file" in
  let ic = open_in file in
  let rows = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then
         match J.parse line with
         | Ok j
           when J.member "experiment" j = Some (J.String "scale_sweep") ->
             rows := j :: !rows
         | Ok _ -> () (* other experiments share the JSON-lines file *)
         | Error e -> fail "unparseable line: %s" e
     done
   with End_of_file -> close_in ic);
  let rows = List.rev !rows in
  if rows = [] then fail "%s has no scale_sweep rows" file;
  let log_sum = ref 0. in
  let worst = ref ("?", 0.) in
  List.iter
    (fun row ->
      let label =
        match
          (J.member "kernel" row, J.member "scheme" row, J.member "scale" row)
        with
        | Some (J.String k), Some (J.String sc), Some (J.Int s) ->
            Printf.sprintf "%s/%s@%d" k sc s
        | _ -> "?"
      in
      if num "cycles_exact" row <= 0. then fail "%s: no exact cycles" label;
      if num "cycles_sampled" row <= 0. then fail "%s: no sampled cycles" label;
      if num "sim_speedup" row <= 0. then fail "%s: no speedup" label;
      let err = num "rel_err_cycles" row in
      if err < 0. then fail "%s: negative error" label;
      if err > max_row_err then
        fail "%s: sampled-cycle error %.4f exceeds the per-row bound %.2f" label
          err max_row_err;
      if err >= snd !worst then worst := (label, err);
      (* Floor exact rows well below the bound so a run of zero errors
         still yields a finite, passing geomean. *)
      log_sum := !log_sum +. log (max err 1e-6))
    rows;
  let geomean = exp (!log_sum /. float_of_int (List.length rows)) in
  if geomean > !max_geomean then
    fail "sampled-cycle error geomean %.4f exceeds %.4f over %d rows" geomean
      !max_geomean (List.length rows);
  Printf.printf
    "scale_check: %s ok (%d rows, error geomean %.4f <= %.4f, worst row %s \
     %.4f <= %.2f)\n"
    file (List.length rows) geomean !max_geomean (fst !worst) (snd !worst)
    max_row_err
