type t = {
  n : int;
  succs : (int, unit) Hashtbl.t array;
  preds : (int, unit) Hashtbl.t array;
}

let create n =
  {
    n;
    succs = Array.init n (fun _ -> Hashtbl.create ~random:false 4);
    preds = Array.init n (fun _ -> Hashtbl.create ~random:false 4);
  }

let num_nodes t = t.n

let add_edge t a b =
  if a < 0 || a >= t.n || b < 0 || b >= t.n then
    invalid_arg "Dep_graph.add_edge";
  Hashtbl.replace t.succs.(a) b ();
  Hashtbl.replace t.preds.(b) a ()

let of_edges n es =
  let t = create n in
  List.iter (fun (a, b) -> add_edge t a b) es;
  t

let has_edge t a b = Hashtbl.mem t.succs.(a) b
let keys h = Hashtbl.fold (fun k () acc -> k :: acc) h []
let preds t v = List.sort compare (keys t.preds.(v))
let succs t v = List.sort compare (keys t.succs.(v))

let num_edges t =
  Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 t.succs

let is_empty t = num_edges t = 0

let edges t =
  let acc = ref [] in
  Array.iteri
    (fun a h -> Hashtbl.iter (fun b () -> acc := (a, b) :: !acc) h)
    t.succs;
  List.sort compare !acc

(* Iterative Tarjan SCC (explicit stack to survive big graphs). *)
let scc t =
  let n = t.n in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let comp = Array.make n (-1) in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succs t v);
    if lowlink.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- !next_comp;
            if w <> v then pop ()
        | [] -> assert false
      in
      pop ();
      incr next_comp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (comp, !next_comp)

let condense t =
  let comp, k = scc t in
  let dag = create k in
  List.iter
    (fun (a, b) ->
      if comp.(a) <> comp.(b) then add_edge dag comp.(a) comp.(b))
    (edges t);
  (comp, dag)

let topo_order t =
  let indeg = Array.make t.n 0 in
  List.iter (fun (_, b) -> indeg.(b) <- indeg.(b) + 1) (edges t);
  let queue = Queue.create () in
  for v = 0 to t.n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr seen;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      (succs t v)
  done;
  if !seen <> t.n then invalid_arg "Dep_graph.topo_order: graph has a cycle";
  List.rev !order

let pp ppf t =
  Fmt.pf ppf "dep_graph(%d nodes, %d edges)" t.n (num_edges t)
