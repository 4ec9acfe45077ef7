type t = {
  bounds : (Affine.t * Affine.t) array;
  guards : Constrnt.t list;
}

let check_bounds bounds =
  let d = Array.length bounds in
  Array.iteri
    (fun j (lo, hi) ->
      if Affine.depth lo <> d || Affine.depth hi <> d then
        invalid_arg "Domain.make: bound depth mismatch";
      for k = j to d - 1 do
        if Affine.coeff lo k <> 0 || Affine.coeff hi k <> 0 then
          invalid_arg "Domain.make: bound refers to inner dimension"
      done)
    bounds

let make ~bounds ~guards =
  check_bounds bounds;
  List.iter
    (fun g ->
      if Constrnt.depth g <> Array.length bounds then
        invalid_arg "Domain.make: guard depth mismatch")
    guards;
  { bounds = Array.copy bounds; guards }

let box ranges =
  let d = Array.length ranges in
  let bounds =
    Array.map (fun (lo, hi) -> (Affine.const d lo, Affine.const d hi)) ranges
  in
  { bounds; guards = [] }

let depth t = Array.length t.bounds
let bounds t = Array.copy t.bounds
let guards t = t.guards

let mem t iv =
  let d = depth t in
  Array.length iv = d
  && (let ok = ref true in
      (try
         for j = 0 to d - 1 do
           let lo, hi = t.bounds.(j) in
           (* Bounds only involve dims < j, so full-vector eval is safe. *)
           if iv.(j) < Affine.eval lo iv || iv.(j) > Affine.eval hi iv then begin
             ok := false;
             raise Exit
           end
         done
       with Exit -> ());
      !ok)
  && Constrnt.sat_all t.guards iv

(* Every enumeration of a domain ([iter], [fold], [to_list],
   [cardinal]) ticks the request deadline once per point visited. *)
let iter f t =
  let d = depth t in
  let iv = Array.make d 0 in
  let rec go j =
    if j = d then begin
      Ctam_util.Deadline.tick ();
      if Constrnt.sat_all t.guards iv then f iv
    end
    else begin
      let lo, hi = t.bounds.(j) in
      let lo = Affine.eval lo iv and hi = Affine.eval hi iv in
      for v = lo to hi do
        iv.(j) <- v;
        go (j + 1)
      done
    end
  in
  if d = 0 then (if Constrnt.sat_all t.guards iv then f iv) else go 0

let fold f init t =
  let acc = ref init in
  iter (fun iv -> acc := f !acc iv) t;
  !acc

(* Restartable lazy enumeration with the exact visit order of [iter]:
   a backtracking odometer.  [seed j] fills dims [j..d-1] with their
   lower bounds (backtracking when a range is empty under the current
   prefix); [bump j] advances the deepest dimension that still has
   room and reseeds below it.  Upper bounds are cached per prefix,
   mirroring the for-loop's one-time evaluation. *)
type gen = { next : unit -> int array option; restart : unit -> unit }

let to_gen t =
  let d = depth t in
  let iv = Array.make d 0 in
  (* Every point is handed out in the one option box: [next] allocates
     nothing. *)
  let point = Some iv in
  let his = Array.make d 0 in
  let started = ref false in
  let finished = ref false in
  let rec seed j =
    if j = d then true
    else begin
      let lo, hi = t.bounds.(j) in
      let lo = Affine.eval lo iv and hi = Affine.eval hi iv in
      his.(j) <- hi;
      if lo > hi then bump (j - 1)
      else begin
        iv.(j) <- lo;
        seed (j + 1)
      end
    end
  and bump j =
    if j < 0 then false
    else if iv.(j) < his.(j) then begin
      iv.(j) <- iv.(j) + 1;
      seed (j + 1)
    end
    else bump (j - 1)
  in
  let rec next () =
    if !finished then None
    else begin
      let ok =
        if not !started then begin
          started := true;
          if d = 0 then true else seed 0
        end
        else if d = 0 then false
        else bump (d - 1)
      in
      if not ok then begin
        finished := true;
        None
      end
      else if Constrnt.sat_all t.guards iv then point
      else next ()
    end
  in
  let restart () =
    started := false;
    finished := false
  in
  { next; restart }

let to_list t = List.rev (fold (fun acc iv -> Array.copy iv :: acc) [] t)
let cardinal t = fold (fun n _ -> n + 1) 0 t
let is_empty t = try iter (fun _ -> raise Exit) t; true with Exit -> false
let add_guards cs t = { t with guards = cs @ t.guards }

let pp ?names ppf t =
  let name j =
    match names with
    | Some ns when j < Array.length ns -> ns.(j)
    | _ -> Printf.sprintf "i%d" j
  in
  Fmt.pf ppf "{ ";
  Array.iteri
    (fun j (lo, hi) ->
      if j > 0 then Fmt.pf ppf "; ";
      Fmt.pf ppf "%a <= %s <= %a" (Affine.pp ?names) lo (name j)
        (Affine.pp ?names) hi)
    t.bounds;
  List.iter (fun g -> Fmt.pf ppf "; %a" (Constrnt.pp ?names) g) t.guards;
  Fmt.pf ppf " }"
