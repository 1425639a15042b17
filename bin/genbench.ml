(* Emits the synthetic benchmark suites as DIMACS files, one directory
   per class, so the instances can be fed to external solvers too. *)

open Berkmin_gen

let sanitize name =
  String.map (function '/' | ' ' -> '_' | c -> c) name

let write_instance dir inst =
  let path = Filename.concat dir (sanitize inst.Instance.name ^ ".cnf") in
  Berkmin_dimacs.Dimacs.write_file path inst.Instance.cnf;
  Printf.printf "wrote %s (%s, expect %s)\n" path
    (Format.asprintf "%a" Berkmin_types.Cnf.pp_stats inst.Instance.cnf)
    (Instance.expected_to_string inst.Instance.expected)

let mkdir_if_missing dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let run out_dir class_names list_flag =
  if list_flag then begin
    List.iter print_endline Suites.class_names;
    `Ok 0
  end
  else
    let unknown =
      List.filter
        (fun name -> not (List.mem name Suites.class_names))
        class_names
    in
    if unknown <> [] then
      `Error
        ( true,
          Printf.sprintf "unknown class%s %s; known: %s"
            (if List.length unknown > 1 then "es" else "")
            (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
            (String.concat ", " Suites.class_names) )
    else
      let classes =
        match class_names with
        | [] -> Suites.all ()
        | names -> List.map (fun name -> (name, Suites.find_class name)) names
      in
      `Ok
        (try
           mkdir_if_missing out_dir;
           List.iter
             (fun (name, instances) ->
               let dir = Filename.concat out_dir (sanitize name) in
               mkdir_if_missing dir;
               List.iter (write_instance dir) instances)
             classes;
           0
         with Sys_error msg ->
           Printf.eprintf "berkmin-genbench: %s\n" msg;
           2)

open Cmdliner

let out_dir =
  Arg.(
    value & opt string "benchmarks"
    & info [ "o"; "out" ] ~docv:"DIR"
        ~doc:"Output directory (created if missing).")

let class_names =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"CLASS" ~doc:"Classes to emit (default: all twelve).")

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List class names and exit.")

let cmd =
  let doc = "Generate the BerkMin reproduction benchmark suites as DIMACS" in
  Cmd.v
    (Cmd.info "berkmin-genbench" ~doc)
    Term.(ret (const run $ out_dir $ class_names $ list_flag))

let () = exit (Cmd.eval' cmd)
