open Ctam_poly
open Ctam_ir
open Ctam_blocks
open Ctam_cachesim

(* The one access-stream builder, resolved once per nest: [cursor
   layout nest ~count ~restart point] is a cursor over [count] points,
   where [point i] is the [i]-th.  After every reset (which calls [restart])
   it asks for [0], [1], ... in order and expands each point into one
   encoded access per reference of [nest], in reference order.  It
   polls the request deadline once per point, so a forced cursor polls
   as often as an eager expansion would, and allocates nothing per
   point. *)
let cursor layout nest =
  let refs = Array.of_list (Nest.refs nest) in
  let nrefs = Array.length refs in
  (* Address functions resolved once per reference (no table lookup or
     allocation per point — see {!Layout.ref_addr_fn}). *)
  let addr_fns = Array.map (Layout.ref_addr_fn layout) refs in
  let writes = Array.map Reference.is_write refs in
  fun ~count ~restart point ->
    (* A chunk of ~256 accesses amortizes the refill over many
       accesses.  It holds whole points only, keeping the order
       point-major. *)
    let points_per_chunk = max 1 (min count (256 / max 1 nrefs)) in
    let buf = Array.make (max 1 (points_per_chunk * nrefs)) 0 in
    let next = ref 0 in
    let reset () =
      next := 0;
      restart ()
    in
    let refill () =
      let first = !next in
      let last = min count (first + points_per_chunk) in
      for i = first to last - 1 do
        Ctam_util.Deadline.tick ();
        let iv = point i in
        let at = (i - first) * nrefs in
        for r = 0 to nrefs - 1 do
          buf.(at + r) <-
            Engine.encode_access ~addr:(addr_fns.(r) iv) ~write:writes.(r)
        done
      done;
      next := last;
      (buf, (last - first) * nrefs)
    in
    Engine.Gen { Engine.length = count * nrefs; reset; refill }

let of_iters layout nest iters =
  let pts = Array.of_list iters in
  cursor layout nest ~count:(Array.length pts) ~restart:ignore (fun i ->
      pts.(i))

(* The points of [s] in key order, decoded into one reused vector. *)
let of_set cursor nest s =
  let iv = Array.make (Nest.depth nest) 0 in
  cursor ~count:(Iterset.cardinal s) ~restart:ignore (fun i ->
      Iterset.decode_into s i iv;
      iv)

let of_iterset layout nest s = of_set (cursor layout nest) nest s

let of_groups layout nest gs =
  let cursor = cursor layout nest in
  Engine.stream_concat
    (List.map (fun g -> of_set cursor nest g.Iter_group.iters) gs)

let serial layout nest =
  let gen = Domain.to_gen nest.Nest.domain in
  cursor layout nest ~count:(Nest.trip_count nest) ~restart:gen.Domain.restart
    (fun _ -> Option.get (gen.Domain.next ()))
