(* In-memory spans around the ledger's calls into the library.

   A span records its name, wall-clock start and end, the span that
   enclosed it, and the id of the operation it belongs to.  Recording is
   off unless [set true] was called; a disabled [with_] is one flag
   test.  The ledger makes every outside call from its main domain (the
   serve workload's client included), so one buffer holds every span. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  op : int;
}

let on = ref false
let next_id = ref 0
let stack = ref []  (* open (span id, op id), innermost first *)
let spans = ref []

let set recording = on := recording

(* Recording off, and every span recorded so far dropped. *)
let reset () =
  on := false;
  next_id := 0;
  stack := [];
  spans := []

let fresh_id () =
  let id = !next_id in
  next_id := id + 1;
  id

let with_ ?op name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent, inherited =
      match !stack with (p, o) :: _ -> (p, o) | [] -> (-1, -1)
    in
    let op = Option.value op ~default:inherited in
    stack := (id, op) :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        stack := List.tl !stack;
        spans := { id; name; start; stop; parent; op } :: !spans)
      f
  end

(* A span whose times the caller took, for operations that interleave
   and so cannot nest under [with_].  Returns its id, to pass as
   [parent] to the spans recorded inside it (-1 when recording is
   off). *)
let record ?(parent = -1) ~op name start stop =
  if not !on then -1
  else begin
    let id = fresh_id () in
    spans := { id; name; start; stop; parent; op } :: !spans;
    id
  end

let collect () = List.rev !spans

(* Per span name: (calls, total seconds, self seconds), where self time
   is the span's duration minus the time its children cover.  Children
   of one span run one after another, so their durations add up without
   overlap. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)
          +. (s.stop -. s.start)))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self =
        d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      let n, tot, slf =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (n + 1, tot +. d, slf +. self))
    spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first span), loadable in Perfetto or chrome://tracing. *)
let chrome_json spans =
  let module J = Ctam_util.Json in
  let origin =
    List.fold_left (fun m s -> Float.min m s.start) infinity spans
  in
  let us x = J.Float (Float.round ((x *. 1e6) *. 1000.) /. 1000.) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.name);
                   ("ph", J.String "X");
                   ("ts", us (s.start -. origin));
                   ("dur", us (s.stop -. s.start));
                   ("pid", J.Int 1);
                   ("tid", J.Int 1);
                   ( "args",
                     J.Obj
                       [
                         ("id", J.Int s.id);
                         ("parent", J.Int s.parent);
                         ("op", J.Int s.op);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", J.String "ms");
    ]
