let geomean = function
  | [] -> invalid_arg "Report.geomean: empty"
  | vs ->
      List.iter (fun v -> if v <= 0. then invalid_arg "Report.geomean: <= 0") vs;
      exp (List.fold_left (fun acc v -> acc +. log v) 0. vs
           /. float_of_int (List.length vs))

(* The geomean row summarises each numeric column over its positive
   cells; zero/absent/non-numeric cells are skipped rather than
   poisoning the column (the old behaviour dashed the whole column; a
   naive geomean over them would be nan/0).  A "*" marks columns where
   cells were skipped; [table] footnotes it.  A column with no usable
   cell at all still gets a dash. *)
let geomean_row ~label ncols rows =
  label
  :: List.init (ncols - 1) (fun c ->
         let cells = List.map (fun row -> List.nth row (c + 1)) rows in
         let values =
           List.filter (fun v -> v > 0.) (List.filter_map float_of_string_opt cells)
         in
         if values = [] then "-"
         else
           let star =
             if List.length values < List.length cells then "*" else ""
           in
           Printf.sprintf "%.3f%s" (geomean values) star)

let table ?geomean:glabel ~header rows =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then invalid_arg "Report.table: ragged row")
    rows;
  let rows, starred =
    match glabel with
    | Some label when rows <> [] && ncols > 1 ->
        let grow = geomean_row ~label ncols rows in
        let starred =
          List.exists
            (fun cell ->
              String.length cell > 0 && cell.[String.length cell - 1] = '*')
            grow
        in
        (rows @ [ grow ], starred)
    | _ -> (rows, false)
  in
  let all = header :: rows in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           if c = 0 then Printf.sprintf "%-*s" w cell
           else Printf.sprintf "%*s" w cell)
         row)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows)
  ^ "\n"
  ^ if starred then "* geomean skips zero/absent cells\n" else ""

let section title =
  Printf.sprintf "\n%s\n%s\n" title (String.make (String.length title) '=')

type cell = (float -> string, unit, string) format

let f2 : cell = "%.2f"

type table = {
  heading : string option;
  labels : string list;
  columns : (string * cell) list;
  rows : (string list * float list) list;
  geomean : bool;
}

type block = Table of table | Text of string
type t = { title : string; blocks : block list }

let render_table t =
  let cells values =
    List.map2 (fun (_, fmt) v -> Printf.sprintf fmt v) t.columns values
  in
  let column c = List.map (fun (_, values) -> List.nth values c) t.rows in
  let summary =
    if t.geomean && t.rows <> [] then
      [ "geomean" :: cells (List.mapi (fun c _ -> geomean (column c)) t.columns) ]
    else []
  in
  Option.fold ~none:"" ~some:section t.heading
  ^ table
      ~header:(t.labels @ List.map fst t.columns)
      (List.map (fun (labels, vs) -> labels @ cells vs) t.rows @ summary)

let render r =
  String.concat ""
    (section r.title
    :: List.map
         (function Table t -> render_table t | Text line -> line ^ "\n")
         r.blocks)
