type box = (int * int) array
type t = { depth : int; boxes : box list }

(* Greedy maximal-box extraction: repeatedly take the lexicographically
   smallest remaining point, grow a box around it innermost-dimension
   first (so rows of the iteration space coalesce), remove it, repeat.
   Boxes are disjoint by construction and cover the whole set. *)
let decompose s =
  let enc = Iterset.encoder s in
  let keys = Iterset.keys s in
  let d = match Array.length keys with
    | 0 -> 0
    | _ -> Array.length (Iterset.decode enc keys.(0))
  in
  if Array.length keys = 0 then { depth = d; boxes = [] }
  else begin
    let remaining = Hashtbl.create (Array.length keys) in
    Array.iter (fun k -> Hashtbl.replace remaining k ()) keys;
    let box_full box =
      (* All points of [box] still remaining? *)
      let iv = Array.map fst box in
      let rec go j =
        if j = d then Hashtbl.mem remaining (Iterset.encode enc iv)
        else begin
          let lo, hi = box.(j) in
          let ok = ref true in
          let v = ref lo in
          while !ok && !v <= hi do
            iv.(j) <- !v;
            ok := go (j + 1);
            incr v
          done;
          !ok
        end
      in
      try go 0 with Invalid_argument _ -> false
    in
    let remove_box box =
      let iv = Array.map fst box in
      let rec go j =
        if j = d then Hashtbl.remove remaining (Iterset.encode enc iv)
        else
          let lo, hi = box.(j) in
          for v = lo to hi do
            iv.(j) <- v;
            go (j + 1)
          done
      in
      go 0
    in
    let boxes = ref [] in
    Array.iter
      (fun k ->
        if Hashtbl.mem remaining k then begin
          let p = Iterset.decode enc k in
          let box = Array.map (fun v -> (v, v)) p in
          (* Grow innermost dimension first: contiguous runs coalesce. *)
          for j = d - 1 downto 0 do
            let keep_growing = ref true in
            while !keep_growing do
              let lo, hi = box.(j) in
              box.(j) <- (lo, hi + 1);
              let probe = Array.copy box in
              probe.(j) <- (hi + 1, hi + 1);
              if box_full probe then ()
              else begin
                box.(j) <- (lo, hi);
                keep_growing := false
              end
            done
          done;
          remove_box box;
          boxes := box :: !boxes
        end)
      keys;
    { depth = d; boxes = List.rev !boxes }
  end

let box_cardinal b =
  Array.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 b

let cardinal t = List.fold_left (fun acc b -> acc + box_cardinal b) 0 t.boxes

let enumerate t =
  let pts = ref [] in
  List.iter
    (fun box ->
      let d = Array.length box in
      let iv = Array.map fst box in
      let rec go j =
        if j = d then pts := Array.copy iv :: !pts
        else
          let lo, hi = box.(j) in
          for v = lo to hi do
            iv.(j) <- v;
            go (j + 1)
          done
      in
      go 0)
    t.boxes;
  List.rev !pts

let emit ?names ~body t =
  let name j =
    match names with
    | Some ns when j < Array.length ns -> ns.(j)
    | _ -> Printf.sprintf "i%d" j
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun box ->
      (* Loops carry explicit braces so the emitted text is valid C
         even when a singleton dimension (an assignment statement)
         appears below a loop dimension. *)
      let opened = ref [] in
      Array.iteri
        (fun j (lo, hi) ->
          Buffer.add_string buf (String.make (2 * j) ' ');
          if lo = hi then
            Buffer.add_string buf (Printf.sprintf "%s = %d;\n" (name j) lo)
          else begin
            Buffer.add_string buf
              (Printf.sprintf "for (%s = %d; %s <= %d; %s++) {\n" (name j) lo
                 (name j) hi (name j));
            opened := j :: !opened
          end)
        box;
      Buffer.add_string buf (String.make (2 * Array.length box) ' ');
      Buffer.add_string buf body;
      Buffer.add_char buf '\n';
      List.iter
        (fun j ->
          Buffer.add_string buf (String.make (2 * j) ' ');
          Buffer.add_string buf "}\n")
        !opened)
    t.boxes;
  Buffer.contents buf

let pp ppf t =
  Fmt.pf ppf "codegen(depth=%d, %d boxes, %d points)" t.depth
    (List.length t.boxes) (cardinal t)
