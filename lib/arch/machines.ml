open Topology

let kb n = n * 1024
let mb n = n * 1024 * 1024

(* Divide a capacity by [scale], keeping at least one full set and
   set-multiple granularity. *)
let scaled ~scale ~assoc ~line size =
  let set = assoc * line in
  max set (size / scale / set * set)

let cache ~scale ~name ~level ~size ~assoc ~line ~latency children =
  Cache
    ( {
        cache_name = name;
        level;
        size_bytes = scaled ~scale ~assoc ~line size;
        assoc;
        line;
        latency;
        policy = Policy.Lru;
      },
      children )

(* A private-L1 core: the leaf pattern every machine shares. *)
let l1_core ~scale ~id ~latency =
  cache ~scale
    ~name:(Printf.sprintf "L1#%d" id)
    ~level:1 ~size:(kb 32) ~assoc:8 ~line:64 ~latency
    [ Core id ]

let harpertown ?(scale = 1) () =
  (* 2 sockets x 4 cores; each L2 (6MB) shared by a pair of cores. *)
  let pair i =
    cache ~scale
      ~name:(Printf.sprintf "L2#%d" i)
      ~level:2 ~size:(mb 6) ~assoc:24 ~line:64 ~latency:15
      [
        l1_core ~scale ~id:(2 * i) ~latency:3;
        l1_core ~scale ~id:((2 * i) + 1) ~latency:3;
      ]
  in
  (* No socket-level cache: each L2 is a root (4 last-level caches). *)
  make ~name:"Harpertown" ~clock_ghz:3.2 ~mem_latency:320
    (List.init 4 pair)

let nehalem ?(scale = 1) () =
  (* 2 sockets x 4 cores; private L2 (256KB); L3 (8MB) per socket. *)
  let core i =
    cache ~scale
      ~name:(Printf.sprintf "L2#%d" i)
      ~level:2 ~size:(kb 256) ~assoc:8 ~line:64 ~latency:10
      [ l1_core ~scale ~id:i ~latency:4 ]
  in
  let socket s =
    cache ~scale
      ~name:(Printf.sprintf "L3#%d" s)
      ~level:3 ~size:(mb 8) ~assoc:16 ~line:64 ~latency:35
      (List.init 4 (fun i -> core ((4 * s) + i)))
  in
  make ~name:"Nehalem" ~clock_ghz:2.9 ~mem_latency:174 [ socket 0; socket 1 ]

let dunnington_sockets ~scale ~num_sockets =
  let pair p =
    cache ~scale
      ~name:(Printf.sprintf "L2#%d" p)
      ~level:2 ~size:(mb 3) ~assoc:12 ~line:64 ~latency:10
      [
        l1_core ~scale ~id:(2 * p) ~latency:4;
        l1_core ~scale ~id:((2 * p) + 1) ~latency:4;
      ]
  in
  let socket s =
    cache ~scale
      ~name:(Printf.sprintf "L3#%d" s)
      ~level:3 ~size:(mb 12) ~assoc:16 ~line:64 ~latency:36
      (List.init 3 (fun p -> pair ((3 * s) + p)))
  in
  List.init num_sockets socket

let dunnington ?(scale = 1) () =
  make ~name:"Dunnington" ~clock_ghz:2.4 ~mem_latency:120
    (dunnington_sockets ~scale ~num_sockets:2)

let dunnington_scaled_cores ?(scale = 1) ~num_cores () =
  if num_cores <= 0 || num_cores mod 6 <> 0 then
    invalid_arg "Machines.dunnington_scaled_cores: need a multiple of 6";
  make
    ~name:(Printf.sprintf "Dunnington-%dc" num_cores)
    ~clock_ghz:2.4 ~mem_latency:120
    (dunnington_sockets ~scale ~num_sockets:(num_cores / 6))

let arch_i ?(scale = 1) () =
  (* Figure 12(a): 16 cores, 2 sockets; L2 per pair, L3 per quad,
     L4 per socket. *)
  let pair p =
    cache ~scale
      ~name:(Printf.sprintf "L2#%d" p)
      ~level:2 ~size:(kb 512) ~assoc:8 ~line:64 ~latency:10
      [
        l1_core ~scale ~id:(2 * p) ~latency:4;
        l1_core ~scale ~id:((2 * p) + 1) ~latency:4;
      ]
  in
  let quad q =
    cache ~scale
      ~name:(Printf.sprintf "L3#%d" q)
      ~level:3 ~size:(mb 4) ~assoc:16 ~line:64 ~latency:24
      [ pair (2 * q); pair ((2 * q) + 1) ]
  in
  let socket s =
    cache ~scale
      ~name:(Printf.sprintf "L4#%d" s)
      ~level:4 ~size:(mb 16) ~assoc:16 ~line:64 ~latency:40
      [ quad (2 * s); quad ((2 * s) + 1) ]
  in
  make ~name:"Arch-I" ~clock_ghz:2.4 ~mem_latency:150 [ socket 0; socket 1 ]

let arch_ii ?(scale = 1) () =
  (* Figure 12(b): 32 cores, 2 sockets; five on-chip levels. *)
  let pair p =
    cache ~scale
      ~name:(Printf.sprintf "L2#%d" p)
      ~level:2 ~size:(kb 256) ~assoc:8 ~line:64 ~latency:8
      [
        l1_core ~scale ~id:(2 * p) ~latency:4;
        l1_core ~scale ~id:((2 * p) + 1) ~latency:4;
      ]
  in
  let quad q =
    cache ~scale
      ~name:(Printf.sprintf "L3#%d" q)
      ~level:3 ~size:(mb 2) ~assoc:16 ~line:64 ~latency:20
      [ pair (2 * q); pair ((2 * q) + 1) ]
  in
  let oct o =
    cache ~scale
      ~name:(Printf.sprintf "L4#%d" o)
      ~level:4 ~size:(mb 8) ~assoc:16 ~line:64 ~latency:32
      [ quad (2 * o); quad ((2 * o) + 1) ]
  in
  let socket s =
    cache ~scale
      ~name:(Printf.sprintf "L5#%d" s)
      ~level:5 ~size:(mb 32) ~assoc:16 ~line:64 ~latency:48
      [ oct (2 * s); oct ((2 * s) + 1) ]
  in
  make ~name:"Arch-II" ~clock_ghz:2.4 ~mem_latency:160 [ socket 0; socket 1 ]

let scale_caches ~scale t =
  map_caches
    (fun p ->
      {
        p with
        size_bytes = scaled ~scale ~assoc:p.assoc ~line:p.line p.size_bytes;
      })
    t

let halve_caches = scale_caches ~scale:2

let commercial ?(scale = 1) () =
  [ harpertown ~scale (); nehalem ~scale (); dunnington ~scale () ]

let by_name ?(scale = 1) name =
  match String.lowercase_ascii name with
  | "harpertown" -> harpertown ~scale ()
  | "nehalem" -> nehalem ~scale ()
  | "dunnington" -> dunnington ~scale ()
  | "arch-i" | "archi" | "arch_i" -> arch_i ~scale ()
  | "arch-ii" | "archii" | "arch_ii" -> arch_ii ~scale ()
  | _ -> raise Not_found
