(* The versioned ledger document, the metric list of BENCHMARK.json, and
   the comparison of two sets of records.

   A document is
   {v {"ctam_bench_version": 1, "version": <tool version>, "nproc": N,
       "runs": [RUN, ...]} v}
   where each RUN holds one workload run: workload, seed, traced,
   seconds, correct, attempted, failed, samples, checks, digest, golden,
   metrics ({name: {"value", "unit"}}) and, when traced, layers (span
   self times).  A run writes a document of one run; [merge] pools any
   number of them into one record. *)

module J = Ctam_util.Json

let schema_version = 1

let document runs =
  J.Obj
    [
      ("ctam_bench_version", J.Int schema_version);
      ("version", J.String Ctam_exp.Build_info.version);
      ("nproc", J.Int (Meter.nproc ()));
      ("runs", J.List runs);
    ]

let read_json path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string j);
      Out_channel.output_char oc '\n')

let str name j = J.to_string_value (J.member_exn name j)

let read_document path =
  let j = read_json path in
  (match J.member "ctam_bench_version" j with
  | Some (J.Int v) when v = schema_version -> ()
  | _ ->
      failwith
        (Printf.sprintf "%s: not a ctam_bench_version %d document" path
           schema_version));
  j

let runs doc = J.to_list (J.member_exn "runs" doc)

(* Pool documents measured by one build on one host. *)
let merge docs =
  match docs with
  | [] -> failwith "merge: no documents"
  | first :: _ ->
      let same name =
        List.for_all (fun d -> J.member name d = J.member name first) docs
      in
      if not (same "version" && same "nproc") then
        failwith "merge: documents come from different builds or hosts";
      J.Obj
        [
          ("ctam_bench_version", J.Int schema_version);
          ("version", J.member_exn "version" first);
          ("nproc", J.member_exn "nproc" first);
          ("runs", J.List (List.concat_map runs docs));
        ]

(* --- BENCHMARK.json -------------------------------------------------------- *)

type spec = {
  name : string;
  unit : string;
  higher : bool;  (** higher is better *)
  bound : float option;  (** end-to-end metrics only *)
}

type benchmark = {
  workloads : string list;
  end_to_end : spec list;
  per_layer : spec list;
}

let load_benchmark path =
  let j = read_json path in
  let specs member =
    List.map
      (fun m ->
        {
          name = str "name" m;
          unit = str "unit" m;
          higher = str "better" m = "higher";
          bound = Option.map J.to_float (J.member "bound" m);
        })
      (J.to_list (J.member_exn member j))
  in
  {
    workloads = List.map (str "name") (J.to_list (J.member_exn "workloads" j));
    end_to_end = specs "end_to_end";
    per_layer = specs "per_layer";
  }

(* --- goldens ---------------------------------------------------------------- *)

(* expect.json maps workload -> seed -> digest of every simulated
   statistic of a run; the seed "*" stands for every seed (workloads
   whose inputs do not depend on it). *)
let golden expect ~workload ~seed =
  match J.member workload expect with
  | None -> None
  | Some per_seed -> (
      match J.member (string_of_int seed) per_seed with
      | Some d -> Some (J.to_string_value d)
      | None -> Option.map J.to_string_value (J.member "*" per_seed))

(* Goldens from untraced full-size runs: one digest for every seed when
   all seeds agree, else the digests of seeds 1 and 2. *)
let expect_of docs =
  let runs =
    List.filter
      (fun r -> J.member "size" r = Some (J.String "full"))
      (List.concat_map runs docs)
  in
  let workloads = List.sort_uniq compare (List.map (str "workload") runs) in
  J.Obj
    (List.map
       (fun w ->
         let pairs =
           List.sort_uniq compare
             (List.filter_map
                (fun r ->
                  if str "workload" r = w then
                    Some (J.to_int (J.member_exn "seed" r), str "digest" r)
                  else None)
                runs)
         in
         let digests = List.sort_uniq compare (List.map snd pairs) in
         let per_seed =
           match digests with
           | [ d ] when List.length pairs >= 2 -> [ ("*", J.String d) ]
           | _ ->
               List.filter_map
                 (fun (s, d) ->
                   if s = 1 || s = 2 then Some (string_of_int s, J.String d)
                   else None)
                 pairs
         in
         (w, J.Obj per_seed))
       workloads)

(* --- comparison ---------------------------------------------------------------- *)

(* End-to-end values come from untraced runs, per-layer ones from traced
   runs. *)
let values ~workload ~metric ~traced runs =
  List.filter_map
    (fun r ->
      if str "workload" r <> workload || J.member "traced" r <> Some (J.Bool traced)
      then None
      else
        match J.member metric (J.member_exn "metrics" r) with
        | Some m -> Some (J.to_float (J.member_exn "value" m))
        | None -> None)
    runs

(* Verdict of B against A for one metric on one workload.  [worse] is
   B's median change in the bad direction, as a share of A's median;
   the spread of a side is its interquartile range over its median.
   - better: every B run beats every A run; or B beats A in at least
     nine tenths of all (A run, B run) pairs and B's median beats A's
     by more than A's spread;
   - unresolved: either spread exceeds the bound (and the runs do not
     separate), so the bound cannot be judged;
   - worse: B's median is worse by more than the bound;
   - within: otherwise. *)
let verdict ~higher ~bound a b =
  let ma = Meter.median a and mb = Meter.median b in
  let spread xs =
    let q1, q3 = Meter.quartiles xs in
    (q3 -. q1) /. Float.abs (Meter.median xs)
  in
  let worse = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
  let beats x y = if higher then x > y else x < y in
  let all_beat xs ys = List.for_all (fun x -> List.for_all (beats x) ys) xs in
  let wins =
    float_of_int
      (List.length (List.concat_map (fun y -> List.filter (fun x -> beats x y) b) a))
    /. float_of_int (List.length a * List.length b)
  in
  let sa = spread a and sb = spread b in
  match bound with
  | None -> "-"
  | Some bound ->
      if all_beat b a then "better"
      else if Float.max sa sb > bound && not (all_beat a b) then "unresolved"
      else if worse > bound then "worse"
      else if wins >= 0.9 && -.worse > sa then "better"
      else "within"

let diff ~benchmark a_docs b_docs =
  let ra = List.concat_map runs a_docs and rb = List.concat_map runs b_docs in
  let workloads =
    List.filter
      (fun w -> List.exists (fun r -> str "workload" r = w) ra)
      benchmark.workloads
  in
  let bad = ref 0 in
  Printf.printf "%-10s %-40s %-8s %32s %32s %8s %6s  %s\n" "workload" "metric"
    "unit" "A median [q1, q3]" "B median [q1, q3]" "change" "bound" "verdict";
  let row ~traced w (s : spec) =
    let a = values ~workload:w ~metric:s.name ~traced ra
    and b = values ~workload:w ~metric:s.name ~traced rb in
    if a <> [] && b <> [] then begin
      let show xs =
        let q1, q3 = Meter.quartiles xs in
        Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (Meter.median xs) q1 q3
          (List.length xs)
      in
      let ma = Meter.median a and mb = Meter.median b in
      let v = verdict ~higher:s.higher ~bound:s.bound a b in
      if v = "worse" || v = "unresolved" then incr bad;
      Printf.printf "%-10s %-40s %-8s %32s %32s %+7.2f%% %6s  %s\n" w s.name
        s.unit (show a) (show b)
        (100. *. (mb -. ma) /. Float.abs ma)
        (match s.bound with
        | Some x -> Printf.sprintf "%.0f%%" (100. *. x)
        | None -> "")
        v
    end
  in
  List.iter
    (fun w ->
      List.iter (row ~traced:false w) benchmark.end_to_end;
      List.iter (row ~traced:true w) benchmark.per_layer)
    workloads;
  !bad
