type t = { name : string; ok : bool; detail : string }

let failed gs = List.filter (fun g -> not g.ok) gs

let json_fields gs =
  let module J = Mikpoly_telemetry.Json in
  [
    ( "gates",
      J.List
        (List.map
           (fun g ->
             J.Obj
               [
                 ("name", J.String g.name);
                 ("ok", J.Bool g.ok);
                 ("detail", J.String g.detail);
               ])
           gs) );
    ("gates_ok", J.Bool (failed gs = []));
  ]

let summary ~all_hold gs =
  match failed gs with
  | [] -> all_hold
  | fs ->
    Printf.sprintf "GATE FAILURES: %s"
      (String.concat "; "
         (List.map (fun g -> g.name ^ " (" ^ g.detail ^ ")") fs))

let all_hold ~prefix gs =
  let fs = failed gs in
  List.iter
    (fun g -> Printf.eprintf "%s gate failed: %s: %s\n" prefix g.name g.detail)
    fs;
  fs = []
