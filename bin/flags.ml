(* The command-line pieces the front ends share: range-checked number
   converters, the strategy preset with its per-field overrides, the
   per-solve budget and the JSON summary writer.  A value a converter
   rejects is a usage error: cmdliner names the flag and the command
   exits 124. *)

open Cmdliner
module Config = Berkmin.Config

(* A converter's error, worded as cmdliner words its own. *)
let invalid s expected =
  Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))

(* An integer of at least [min]. *)
let count ~min =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= min -> Ok n
        | Some _ | None -> invalid s (Printf.sprintf "an integer >= %d" min)),
      Format.pp_print_int )

(* Seconds for a budget or a timeout: [x >= 0.] is false for NaN too. *)
let seconds =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | Some x when x >= 0.0 -> Ok x
        | Some _ | None -> invalid s "a non-negative number"),
      Format.pp_print_float )

(* A value of one of [Config]'s modes, in the vocabulary of its
   [*_of_string] and [*_to_string]. *)
let mode of_string to_string expected =
  Arg.conv
    ( (fun s ->
        match of_string s with Some m -> Ok m | None -> invalid s expected),
      fun fmt m -> Format.pp_print_string fmt (to_string m) )

let strategy =
  let preset =
    Arg.conv
      ( (fun s -> Result.map_error (fun msg -> `Msg msg) (Config.preset s)),
        fun fmt c -> Format.pp_print_string fmt (Config.name_of c) )
  in
  Arg.(
    value & opt preset Config.berkmin
    & info [ "s"; "strategy" ] ~docv:"NAME"
        ~doc:
          ("Solver configuration preset: "
          ^ String.concat ", " (List.map fst Config.presets)
          ^ ".  See docs/STRATEGIES.md."))

let override modes name ~docv ~doc =
  Arg.(
    value
    & opt (some modes) None
    & info [ name ] ~docv ~doc:(doc ^ "  Overrides the strategy preset."))

let simplify =
  override
    (mode Config.simplify_mode_of_string Config.simplify_mode_to_string
       "off, pre or inprocess")
    "simplify" ~docv:"MODE"
    ~doc:
      "Clause-database simplification: $(b,off) (every preset's \
       default), $(b,pre) (one pass — subsumption, self-subsuming \
       resolution, bounded variable elimination, failed-literal probing \
       — before search) or $(b,inprocess) (the same pipeline again at \
       every restart).  Eliminated variables are reconstructed into \
       models, and a DRUP proof logs every rewrite, so it stays \
       checkable.  See docs/SIMPLIFY.md."

let ccmin =
  override
    (mode Config.ccmin_mode_of_string Config.ccmin_mode_to_string
       "off, basic or deep")
    "ccmin" ~docv:"MODE"
    ~doc:
      "Conflict-clause minimization: $(b,off), $(b,basic) \
       (self-subsumption against the reason of each learnt literal) or \
       $(b,deep) (recursive reason-chain redundancy).  See \
       docs/STRATEGIES.md."

let phase_saving =
  override Arg.bool "phase-saving" ~docv:"BOOL"
    ~doc:
      "Remember each variable's last assigned polarity and reuse it on \
       later decisions, overriding the configured polarity heuristic for \
       previously-assigned variables."

let restarts =
  override
    (mode Config.restart_mode_of_string Config.restart_mode_to_string
       "fixed:N, luby:N or none")
    "restarts" ~docv:"MODE"
    ~doc:
      "Restart schedule: $(b,fixed:N) (every $(b,N) conflicts, the \
       paper's scheme), $(b,luby:N) (Luby sequence with unit $(b,N)) or \
       $(b,none)."

let reduce =
  override
    (mode Config.reduction_mode_of_string Config.reduction_mode_to_string
       "berkmin, length:N, glue:N or keep-all")
    "reduce" ~docv:"MODE"
    ~doc:
      "Learnt-database reduction: $(b,berkmin) (the paper's \
       aging/activity scheme), $(b,length:N), $(b,glue:N) (keep clauses \
       with learn-time glue at most $(b,N), plus the youngest band) or \
       $(b,keep-all)."

(* The preset with every override given applied over it. *)
let config =
  let apply (preset : Config.t) simplify ccmin phase_saving restarts reduce =
    let value o default = Option.value o ~default in
    {
      preset with
      simplify = value simplify preset.simplify;
      ccmin_mode = value ccmin preset.ccmin_mode;
      phase_saving = value phase_saving preset.phase_saving;
      restart_mode = value restarts preset.restart_mode;
      reduction_mode = value reduce preset.reduction_mode;
    }
  in
  Term.(
    const apply $ strategy $ simplify $ ccmin $ phase_saving $ restarts
    $ reduce)

let budget =
  let max_conflicts =
    Arg.(
      value
      & opt (some (count ~min:0)) None
      & info [ "max-conflicts" ] ~docv:"N"
          ~doc:"Abort each solve call after $(docv) conflicts.")
  in
  let max_seconds =
    Arg.(
      value
      & opt (some seconds) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:"Abort each solve call after $(docv) CPU seconds.")
  in
  Term.(
    const (fun max_conflicts max_seconds ->
        { Berkmin.Solver.max_conflicts; max_seconds })
    $ max_conflicts $ max_seconds)

(* Writes [json] to [path], or to stdout when [path] is "-"; a path
   that cannot be written exits 2. *)
let write_json path json =
  let text = Berkmin_types.Json.to_string_pretty json ^ "\n" in
  if path = "-" then print_string text
  else
    match Out_channel.with_open_text path (fun oc -> output_string oc text) with
    | () -> Printf.printf "json summary written to %s\n" path
    | exception Sys_error msg ->
      prerr_endline msg;
      exit 2
