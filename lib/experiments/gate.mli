(** Acceptance gates of the gated experiments (graph, fleet, rank,
    hetero): each gate is one hard, named claim of a subsystem, checked
    by the CLI subcommand and the bench stage alike. *)

type t = { name : string; ok : bool; detail : string }

val failed : t list -> t list
(** The gates that do not hold, in order. *)

val json_fields : t list -> (string * Mikpoly_telemetry.Json.t) list
(** The report's ["gates"] list (one [name]/[ok]/[detail] object per
    gate) and its ["gates_ok"] flag. *)

val summary : all_hold:string -> t list -> string
(** The report's closing sentence: [all_hold] when every gate holds,
    else ["GATE FAILURES: "] followed by each failed gate as
    ["name (detail)"], separated by ["; "]. *)

val all_hold : prefix:string -> t list -> bool
(** Whether every gate holds. Writes one line
    ["<prefix> gate failed: <name>: <detail>"] to stderr per failed
    gate. *)
