open Ctam_poly
open Ctam_arch
open Ctam_ir
open Ctam_blocks

let block_partition ~n nest =
  if n <= 0 then invalid_arg "Baselines.block_partition";
  let dom = nest.Nest.domain in
  let enc = Iterset.encoder_of_domain dom in
  let keys = Iterset.keys (Iterset.of_domain enc dom) in
  let total = Array.length keys in
  (* Chunk c holds the ranks i with i * n / total = c: the range
     [ceil (c * total / n), ceil ((c + 1) * total / n)). *)
  let start c = ((c * total) + n - 1) / n in
  Array.init n (fun c ->
      Ctam_util.Deadline.check ();
      let lo = start c in
      Iterset.of_sorted_keys enc (Array.sub keys lo (start (c + 1) - lo)))

let default_assignment ~topo groups =
  let n = topo.Topology.num_cores in
  match Array.length groups with
  | 0 -> Array.make n []
  | _ ->
      let enc = Iterset.encoder groups.(0).Iter_group.iters in
      (* Chunk boundaries are key ranks over the full iteration set; a
         group's members fall into a chunk iff their key lies between
         two boundary key values, so each group splits by binary
         search instead of set intersection. *)
      let all_keys =
        let parts = Array.map (fun g -> Iterset.keys g.Iter_group.iters) groups in
        let merged = Array.concat (Array.to_list parts) in
        Array.sort compare merged;
        merged
      in
      let total = Array.length all_keys in
      let boundary c =
        (* First key value belonging to chunk [c]. *)
        let r = c * total / n in
        if r >= total then max_int else all_keys.(r)
      in
      let result = Array.make n [] in
      Array.iter
        (fun g ->
          (* Splitting a group copies its parts: poll the request
             deadline per group. *)
          Ctam_util.Deadline.check ();
          let keys = Iterset.keys g.Iter_group.iters in
          let m = Array.length keys in
          let start = ref 0 in
          for c = 0 to n - 1 do
            let upper = boundary (c + 1) in
            let fin = ref !start in
            while !fin < m && keys.(!fin) < upper do
              incr fin
            done;
            if !fin > !start then begin
              let part = Array.sub keys !start (!fin - !start) in
              result.(c) <-
                { g with Iter_group.iters = Iterset.of_sorted_keys enc part }
                :: result.(c)
            end;
            start := !fin
          done)
        groups;
      Array.map List.rev result
