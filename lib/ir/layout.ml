type entry = { decl : Array_decl.t; base : int }

type t = {
  align : int;
  by_name : (string, entry) Hashtbl.t;
  order : Array_decl.t list;
  total : int;
}

let round_up x align = (x + align - 1) / align * align

let make ~align arrays =
  if align <= 0 then invalid_arg "Layout.make: align";
  let by_name = Hashtbl.create 16 in
  let cursor = ref 0 in
  List.iter
    (fun decl ->
      let base = round_up !cursor align in
      Hashtbl.replace by_name decl.Array_decl.name { decl; base };
      cursor := base + Array_decl.byte_size decl)
    arrays;
  { align; by_name; order = arrays; total = !cursor }

let of_program ~align p = make ~align p.Program.arrays
let align t = t.align

let entry t name =
  match Hashtbl.find_opt t.by_name name with
  | Some e -> e
  | None -> raise Not_found

let base t name = (entry t name).base
let decl t name = (entry t name).decl
let total_bytes t = t.total

let elem_addr t name idx =
  let e = entry t name in
  e.base + (Array_decl.linearize e.decl idx * e.decl.Array_decl.elem_size)

let ref_addr t r iv = elem_addr t r.Reference.array_name (Reference.target r iv)

(* Same function, partially applied: the table lookup happens once and
   the subscript values feed the row-major offset directly, so the
   per-iteration call does no hashing and allocates nothing.  Hot on
   the generator-stream path, where addresses are recomputed on every
   simulation run instead of being materialized once.  A subscript out
   of range fails with [Array_decl.linearize]'s own message, as
   [ref_addr] does. *)
let ref_addr_fn t r =
  let e = entry t r.Reference.array_name in
  let dims = e.decl.Array_decl.dims in
  let subs = r.Reference.subs in
  let n = Array.length subs in
  let base = e.base in
  let esz = e.decl.Array_decl.elem_size in
  fun iv ->
    let off = ref 0 in
    for k = 0 to n - 1 do
      let v = Ctam_poly.Affine.eval subs.(k) iv in
      if v < 0 || v >= dims.(k) then
        invalid_arg
          (Printf.sprintf "Array_decl.linearize: %s index %d out of [0,%d)"
             e.decl.Array_decl.name v dims.(k));
      off := (!off * dims.(k)) + v
    done;
    base + (!off * esz)
let arrays t = t.order

let pp ppf t =
  Fmt.pf ppf "@[<v>layout (align %d, %d B total):@,%a@]" t.align t.total
    Fmt.(
      list ~sep:cut (fun ppf d ->
          pf ppf "  %s @@ %d" d.Array_decl.name (base t d.Array_decl.name)))
    t.order
