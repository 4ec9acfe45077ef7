(* The two forms of a metrics snapshot, as [ctamap --metrics-out] writes
   them and the daemon's [metrics] op returns them: the JSON schema of
   [Profile.snapshot_json] and the Prometheus text exposition. *)

module J = Ctam_util.Json

(* Check the snapshot [j]: version stamps, the gc member, families
   sorted by name, each of a known kind with string labels, counters
   non-negative, histogram buckets cumulative and ending at a "+Inf"
   bound whose count is the series count.  Each family in [require]
   must exist with a live series (a nonzero counter or gauge, a
   non-empty histogram).  Returns each family's name and whether it is
   live. *)
let check_snapshot ?(require = []) ~what j =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let member name j =
    match J.member name j with Some v -> v | None -> fail "member %S missing" name
  in
  let str name j =
    match member name j with J.String s -> s | _ -> fail "%S is not a string" name
  in
  let num name = function
    | J.Int i -> float_of_int i
    | J.Float f -> f
    | _ -> fail "%S is not a number" name
  in
  let int name = function J.Int i -> i | _ -> fail "%S is not an int" name in
  if J.member "ctam_metrics_version" j <> Some (J.Int 1) then
    fail "no ctam_metrics_version 1";
  ignore (str "version" j);
  if num "minor_words" (member "minor_words" (member "gc" j)) < 0. then
    fail "negative gc minor_words";
  let family f =
    let name = str "name" f in
    let kind = str "kind" f in
    let live s =
      (match J.member "labels" s with
      | None -> ()
      | Some (J.Obj pairs) ->
          List.iter
            (function
              | _, J.String _ -> ()
              | k, _ -> fail "%s: label %S is not a string" name k)
            pairs
      | Some _ -> fail "%s: labels is not an object" name);
      match kind with
      | "counter" ->
          let v = int "value" (member "value" s) in
          if v < 0 then fail "%s: negative counter %d" name v;
          v > 0
      | "gauge" -> num "value" (member "value" s) <> 0.
      | "histogram" ->
          let count = int "count" (member "count" s) in
          if count < 0 then fail "%s: negative count %d" name count;
          ignore (num "sum" (member "sum" s));
          let last =
            match member "buckets" s with
            | J.List (_ :: _ as buckets) ->
                List.fold_left
                  (fun (prev, _) b ->
                    let c = int "count" (member "count" b) in
                    if c < prev then
                      fail "%s: bucket counts not cumulative (%d after %d)" name c
                        prev;
                    (c, member "le" b))
                  (0, J.Null) buckets
            | J.List [] -> fail "%s: empty bucket list" name
            | _ -> fail "%s: buckets is not a list" name
          in
          if snd last <> J.String "+Inf" then
            fail "%s: last bucket bound is not +Inf" name;
          if fst last <> count then
            fail "%s: +Inf bucket count %d is not the count %d" name (fst last)
              count;
          count > 0
      | k -> fail "%s: unknown kind %S" name k
    in
    match member "series" f with
    | J.List series -> (name, List.exists live series)
    | _ -> fail "%s: series is not a list" name
  in
  let families =
    match member "metrics" j with
    | J.List l -> List.map family l
    | _ -> fail "metrics is not a list"
  in
  let names = List.map fst families in
  if List.sort compare names <> names then fail "families are not sorted by name";
  List.iter
    (fun r ->
      match List.assoc_opt r families with
      | None -> fail "required family %S missing" r
      | Some false -> fail "required family %S has no nonzero series" r
      | Some true -> ())
    require;
  families

(* Check the exposition [text]: only HELP and TYPE comments, every
   sample line a series and a number, no series twice, at least one
   sample. *)
let check_prom ~what text =
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      let fail fmt = Alcotest.failf ("%s:%d: " ^^ fmt) what (i + 1) in
      if line = "" then ()
      else if line.[0] = '#' then begin
        if
          not
            (String.starts_with ~prefix:"# HELP " line
            || String.starts_with ~prefix:"# TYPE " line)
        then fail "unknown comment form"
      end
      else
        match String.rindex_opt line ' ' with
        | None -> fail "no value on sample line"
        | Some sp ->
            let series = String.sub line 0 sp in
            (match String.sub line (sp + 1) (String.length line - sp - 1) with
            | "+Inf" | "-Inf" | "NaN" -> ()
            | v when float_of_string_opt v <> None -> ()
            | v -> fail "unparseable value %S" v);
            if Hashtbl.mem seen series then fail "duplicate series %s" series;
            Hashtbl.add seen series ())
    (String.split_on_char '\n' text);
  if Hashtbl.length seen = 0 then Alcotest.failf "%s: no samples" what

(* The sample lines of [text] that start with [prefix]. *)
let samples ~prefix text =
  List.filter (String.starts_with ~prefix) (String.split_on_char '\n' text)
