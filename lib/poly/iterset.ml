type encoder = {
  los : int array;
  extents : int array;
  strides : int array;
}

let encoder_of_box los his =
  let d = Array.length los in
  if Array.length his <> d then invalid_arg "Iterset.encoder_of_box";
  let extents =
    Array.init d (fun j ->
        let e = his.(j) - los.(j) + 1 in
        if e <= 0 then invalid_arg "Iterset.encoder_of_box: empty range";
        e)
  in
  (* Row-major: last dimension varies fastest so that key order is
     lexicographic order of the vectors. *)
  let strides = Array.make d 1 in
  for j = d - 2 downto 0 do
    strides.(j) <- strides.(j + 1) * extents.(j + 1);
    if strides.(j) > max_int / (extents.(j) + 1) then
      invalid_arg "Iterset.encoder_of_box: overflow"
  done;
  { los = Array.copy los; extents; strides }

let encoder_of_domain dom =
  let d = Domain.depth dom in
  if d = 0 then encoder_of_box [||] [||]
  else begin
    let los = Array.make d max_int and his = Array.make d min_int in
    Domain.iter
      (fun iv ->
        for j = 0 to d - 1 do
          if iv.(j) < los.(j) then los.(j) <- iv.(j);
          if iv.(j) > his.(j) then his.(j) <- iv.(j)
        done)
      dom;
    if los.(0) = max_int then
      (* Empty domain: give a 1-point box so the encoder is usable. *)
      encoder_of_box (Array.make d 0) (Array.make d 0)
    else encoder_of_box los his
  end

let encode enc iv =
  let d = Array.length enc.los in
  if Array.length iv <> d then invalid_arg "Iterset.encode: dimension";
  let k = ref 0 in
  for j = 0 to d - 1 do
    let v = iv.(j) - enc.los.(j) in
    if v < 0 || v >= enc.extents.(j) then
      invalid_arg "Iterset.encode: out of box";
    k := !k + (v * enc.strides.(j))
  done;
  !k

let decode_to enc k iv =
  let k = ref k in
  for j = 0 to Array.length enc.los - 1 do
    iv.(j) <- (!k / enc.strides.(j)) + enc.los.(j);
    k := !k mod enc.strides.(j)
  done

let decode enc k =
  let iv = Array.make (Array.length enc.los) 0 in
  decode_to enc k iv;
  iv

type t = { enc : encoder; keys : int array (* sorted, distinct *) }

let empty enc = { enc; keys = [||] }

let dedup_sorted a =
  let n = Array.length a in
  if n = 0 then a
  else begin
    let out = Array.make n a.(0) in
    let m = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> out.(!m - 1) then begin
        out.(!m) <- a.(i);
        incr m
      end
    done;
    Array.sub out 0 !m
  end

let of_list enc l =
  let keys = Array.of_list (List.map (encode enc) l) in
  Array.sort compare keys;
  { enc; keys = dedup_sorted keys }

let of_sorted_keys enc keys =
  for i = 1 to Array.length keys - 1 do
    if keys.(i - 1) >= keys.(i) then
      invalid_arg "Iterset.of_sorted_keys: keys not ascending"
  done;
  { enc; keys }

(* [Domain.iter] visits points in lexicographic order, which row-major
   keys preserve: the keys arrive ascending. *)
let of_domain enc dom =
  let keys = Ctam_util.Int_vec.create () in
  Domain.iter (fun iv -> Ctam_util.Int_vec.push keys (encode enc iv)) dom;
  of_sorted_keys enc (Ctam_util.Int_vec.sub keys 0 keys.length)

let encoder t = t.enc
let cardinal t = Array.length t.keys
let is_empty t = Array.length t.keys = 0

let mem_key t k =
  let lo = ref 0 and hi = ref (Array.length t.keys - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.keys.(mid) in
    if v = k then found := true
    else if v < k then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let mem t iv = try mem_key t (encode t.enc iv) with Invalid_argument _ -> false

let add t iv =
  let k = encode t.enc iv in
  if mem_key t k then t
  else begin
    let keys = Array.append t.keys [| k |] in
    Array.sort compare keys;
    { t with keys }
  end

let merge_keys f a b =
  (* Linear merge applying [f inA inB] to decide membership. *)
  let na = Array.length a and nb = Array.length b in
  let buf = Array.make (na + nb) 0 in
  let m = ref 0 and i = ref 0 and j = ref 0 in
  let push k = buf.(!m) <- k; incr m in
  while !i < na || !j < nb do
    if !j >= nb || (!i < na && a.(!i) < b.(!j)) then begin
      if f true false then push a.(!i);
      incr i
    end
    else if !i >= na || b.(!j) < a.(!i) then begin
      if f false true then push b.(!j);
      incr j
    end
    else begin
      if f true true then push a.(!i);
      incr i;
      incr j
    end
  done;
  Array.sub buf 0 !m

let union a b = { a with keys = merge_keys (fun _ _ -> true) a.keys b.keys }
let inter a b = { a with keys = merge_keys ( && ) a.keys b.keys }
let diff a b = { a with keys = merge_keys (fun x y -> x && not y) a.keys b.keys }
let equal a b = a.keys = b.keys
let subset a b = Array.for_all (fun k -> mem_key b k) a.keys
let iter f t = Array.iter (fun k -> f (decode t.enc k)) t.keys

let decode_into t i iv =
  if Array.length iv <> Array.length t.enc.los then
    invalid_arg "Iterset.decode_into: dimension";
  decode_to t.enc t.keys.(i) iv

let fold f init t =
  let acc = ref init in
  iter (fun iv -> acc := f !acc iv) t;
  !acc

let to_list t = List.rev (fold (fun acc iv -> iv :: acc) [] t)

let split_at n t =
  let n = max 0 (min n (Array.length t.keys)) in
  ( { t with keys = Array.sub t.keys 0 n },
    { t with keys = Array.sub t.keys n (Array.length t.keys - n) } )

let min_key t = if Array.length t.keys = 0 then max_int else t.keys.(0)
let keys t = Array.copy t.keys

let of_keys enc keys =
  let keys = Array.copy keys in
  Array.sort compare keys;
  { enc; keys = dedup_sorted keys }

let pp ppf t =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any "; ") (array ~sep:(any ",") int))
    (List.filteri (fun i _ -> i < 16) (to_list t));
  if cardinal t > 16 then Fmt.pf ppf "... (%d points)" (cardinal t)
