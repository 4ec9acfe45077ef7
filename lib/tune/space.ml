open Ctam_core
module J = Ctam_util.Json

type point = {
  scheme : Mapping.scheme;
  alpha : float;
  beta : float;
  balance : float;
  tile_edge : int option;
}

let default_point ?(scheme = Mapping.Combined) () =
  let d = Mapping.default_params in
  {
    scheme;
    alpha = d.Mapping.alpha;
    beta = d.Mapping.beta;
    balance = d.Mapping.balance_threshold;
    tile_edge = d.Mapping.tile_edge;
  }

let params_of ?(base = Mapping.default_params) p =
  {
    base with
    Mapping.alpha = p.alpha;
    beta = p.beta;
    balance_threshold = p.balance;
    tile_edge = p.tile_edge;
  }

(* Which coordinates the compile pipeline actually reads per scheme
   (see Mapping.compile): α/β reach Schedule.run only under Local and
   Combined (Base forces 0/0, Topology_aware is dependence-only), the
   balance threshold reaches Distribute.run only under Topology_aware
   and Combined, and the tile edge exists only in Base+. *)
let canonical p =
  let d = Mapping.default_params in
  let uses_weights =
    match p.scheme with
    | Mapping.Local | Mapping.Combined -> true
    | Mapping.Base | Mapping.Base_plus | Mapping.Topology_aware -> false
  in
  let uses_balance =
    match p.scheme with
    | Mapping.Topology_aware | Mapping.Combined -> true
    | Mapping.Base | Mapping.Base_plus | Mapping.Local -> false
  in
  let uses_tile = p.scheme = Mapping.Base_plus in
  {
    p with
    alpha = (if uses_weights then p.alpha else d.Mapping.alpha);
    beta = (if uses_weights then p.beta else d.Mapping.beta);
    balance = (if uses_balance then p.balance else d.Mapping.balance_threshold);
    tile_edge = (if uses_tile then p.tile_edge else None);
  }

let equal a b =
  a.scheme = b.scheme && a.alpha = b.alpha && a.beta = b.beta
  && a.balance = b.balance && a.tile_edge = b.tile_edge

let tile_str = function None -> "auto" | Some e -> string_of_int e

let key_fragment p =
  Printf.sprintf "scheme=%s alpha=%h beta=%h balance=%h tile=%s"
    (Mapping.scheme_id p.scheme) p.alpha p.beta p.balance (tile_str p.tile_edge)

let pp ppf p =
  Fmt.pf ppf "%s a=%g b=%g bal=%g tile=%s" (Mapping.scheme_id p.scheme)
    p.alpha p.beta p.balance (tile_str p.tile_edge)

let to_json p =
  J.Obj
    [
      ("scheme", J.String (Mapping.scheme_id p.scheme));
      ("alpha", J.Float p.alpha);
      ("beta", J.Float p.beta);
      ("balance_threshold", J.Float p.balance);
      ( "tile_edge",
        match p.tile_edge with None -> J.Null | Some e -> J.Int e );
    ]

let of_json j =
  match j with
  | J.Obj _ -> (
      let num name dflt =
        match J.member name j with
        | Some (J.Int i) -> Ok (float_of_int i)
        | Some (J.Float f) -> Ok f
        | None -> Ok dflt
        | Some v ->
            Error (Printf.sprintf "member '%s' is not a number (%s)" name
                     (J.to_string ~minify:true v))
      in
      let ( let* ) r f = Result.bind r f in
      let d = default_point () in
      let* scheme =
        match J.member "scheme" j with
        | Some (J.String s) -> Mapping.scheme_of_id s
        | None -> Ok d.scheme
        | Some _ -> Error "member 'scheme' is not a string"
      in
      let* alpha = num "alpha" d.alpha in
      let* beta = num "beta" d.beta in
      let* balance = num "balance_threshold" d.balance in
      let* tile_edge =
        match J.member "tile_edge" j with
        | None | Some J.Null -> Ok None
        | Some (J.Int e) -> Ok (Some e)
        | Some _ -> Error "member 'tile_edge' is not an integer or null"
      in
      Ok { scheme; alpha; beta; balance; tile_edge })
  | _ -> Error "params file is not a JSON object"

type axes = {
  schemes : Mapping.scheme list;
  alphas : float list;
  betas : float list;
  balances : float list;
  tile_edges : int option list;
}

let default_axes =
  {
    schemes = Mapping.all_schemes;
    alphas = [ 0.25; 0.5; 1.0 ];
    betas = [ 0.25; 0.5; 1.0 ];
    balances = [ 0.05; 0.10; 0.20 ];
    tile_edges = [ None; Some 8; Some 16 ];
  }

let dedup points =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      let k = key_fragment p in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    points

let grid axes =
  if
    axes.schemes = [] || axes.alphas = [] || axes.betas = []
    || axes.balances = [] || axes.tile_edges = []
  then invalid_arg "Space.grid: empty axis";
  List.concat_map
    (fun scheme ->
      List.concat_map
        (fun alpha ->
          List.concat_map
            (fun beta ->
              List.concat_map
                (fun balance ->
                  List.map
                    (fun tile_edge ->
                      canonical { scheme; alpha; beta; balance; tile_edge })
                    axes.tile_edges)
                axes.balances)
            axes.betas)
        axes.alphas)
    axes.schemes
  |> dedup

let refine ~around =
  let p = canonical around in
  let scale v = [ v; v /. 2.; v *. 2. ] in
  let tiles =
    match p.tile_edge with
    | None -> [ None; Some 8; Some 16 ]
    | Some e -> [ Some e; Some (max 1 (e / 2)); Some (e * 2); None ]
  in
  List.concat_map
    (fun alpha ->
      List.concat_map
        (fun beta ->
          List.concat_map
            (fun balance ->
              List.map
                (fun tile_edge ->
                  canonical { p with alpha; beta; balance; tile_edge })
                tiles)
            (scale p.balance))
        (scale p.beta))
    (scale p.alpha)
  |> dedup

let axis_candidates axes p =
  let p = canonical p in
  let keep_first first rest = dedup (first :: rest) in
  [
    keep_first p
      (List.map (fun scheme -> canonical { p with scheme }) axes.schemes);
    keep_first p (List.map (fun alpha -> canonical { p with alpha }) axes.alphas);
    keep_first p (List.map (fun beta -> canonical { p with beta }) axes.betas);
    keep_first p
      (List.map (fun balance -> canonical { p with balance }) axes.balances);
    keep_first p
      (List.map
         (fun tile_edge -> canonical { p with tile_edge })
         axes.tile_edges);
  ]
