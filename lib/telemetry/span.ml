(* The collectors open on this domain, innermost first; each holds the
   spans closed directly inside it, newest first. *)
let collectors : (string * float) list ref list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let with_ name f =
  match Domain.DLS.get collectors with
  | [] -> f ()
  | spans :: _ ->
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          spans := (name, Unix.gettimeofday () -. t0) :: !spans)
        f

let collect f =
  let spans = ref [] in
  let outer = Domain.DLS.get collectors in
  Domain.DLS.set collectors (spans :: outer);
  let r = Fun.protect ~finally:(fun () -> Domain.DLS.set collectors outer) f in
  (r, List.rev !spans)
