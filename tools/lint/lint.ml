(** sss_lint shared core + the legacy syntactic engine.

    This module owns the rule vocabulary shared with the typed
    whole-program engine in {!Typed_lint} — rule names R1-R9, families,
    directory scoping, suppression attributes, fingerprints, baselines —
    and implements the original per-file Parsetree pass for R1-R6.  The
    syntactic pass needs no build (scope derives from the file path alone)
    but a single [module U = Unix] alias defeats it, which is why
    {!Typed_lint} is the default engine; this pass survives as
    [--engine syntactic] and as the regression baseline demonstrating what
    typed resolution catches that string matching cannot.

    The syntactic rules, each scoped by directory:

    - R1 [determinism]: no wall-clock or ambient entropy anywhere under
      [lib/] — [Unix.*], [Sys.time], and the stdlib [Random.*] are banned
      (the simulator's virtual time and the splitmix [Prng] are the only
      admissible sources).  [bin/] and [bench/] are exempt by scope.
    - R2 [no polymorphic comparison]: in the hot libraries ([lib/data],
      [lib/sim], [lib/net], [lib/core]) the named polymorphic functions
      [compare]/[min]/[max]/[Hashtbl.hash] are flagged unless an operand
      is syntactically scalar (literal, int/float arithmetic, a known
      length-returning function, or an explicit [(e : int)] coercion);
      the comparison operators [=]/[<>]/[<]/[>]/[<=]/[>=] are flagged
      when an operand is manifestly structured (tuple, record, list,
      constructor or polymorphic variant with a payload, array, string
      literal, function) or names a vector clock ([vc], [vclock], or a
      [_vc]/[_vclock] suffix — the exact class of the latent [Vclock]
      polymorphic-compare bug PR 1 fixed).  [@poly_ok] suppresses.
    - R3 [Vclock ownership]: applications (or bare mentions) of
      [Vclock.set_into]/[max_into]/[blit]/[unsafe_of_array] must carry
      [@owned] or sit inside an allowlisted function.
    - R4 [iteration order]: [Hashtbl.fold]/[Hashtbl.iter] in the
      history-affecting libraries ([lib/core], [lib/consistency],
      [lib/data], [lib/twopc], [lib/walter], [lib/rococo]) must carry
      [@order_ok], asserting the result is insensitive to bucket order.
    - R5 [no ad-hoc printing]: the stdout/stderr printers
      ([print_string], [Printf.printf], [Format.eprintf], ...) are banned
      under [lib/] — trace emission goes through [Obs]'s typed emitters
      (docs/OBSERVABILITY.md) so it is ring-buffered, virtual-time-stamped,
      and absent when [Config.observe] is off.  [lib/experiments] (the
      figure printers) is exempt by scope; [@print_ok] suppresses.
    - R6 [no toplevel mutable state]: module-level bindings under [lib/]
      must not construct mutable state — [ref], [Hashtbl.create] (and the
      other stdlib mutable containers), [Array.make]/[init], [Bytes], or a
      literal of a record type that declares a [mutable] field in the same
      file.  Such a binding is shared by every domain once runs fan out
      through [Sss_par.Pool], so it is both a data race and a determinism
      leak between runs.  State belongs in per-run values threaded through
      [Config]/run setup, or in [Atomic.t] (exempt: it is the sanctioned
      cross-domain primitive).  [@@domain_safe] on the binding suppresses,
      asserting the value is either never mutated after initialization or
      safe and intended to be shared.

    The checker is syntactic by design: [@poly_ok] therefore means
    "reviewed: this comparison is statically monomorphic at a scalar type,
    or deliberately polymorphic on a cold path", not merely "silence". *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9 ]

(* The rules the legacy per-file Parsetree pass implements.  R7-R9 need
   resolved paths and a whole-program call graph: Typed_lint only. *)
let syntactic_rules = [ R1; R2; R3; R4; R5; R6 ]

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"

let rule_index = function
  | R1 -> 0
  | R2 -> 1
  | R3 -> 2
  | R4 -> 3
  | R5 -> 4
  | R6 -> 5
  | R7 -> 6
  | R8 -> 7
  | R9 -> 8

let rule_of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "R1" | "DETERMINISM" -> Some R1
  | "R2" | "POLY" | "POLYCOMPARE" -> Some R2
  | "R3" | "OWNED" | "VCLOCK" -> Some R3
  | "R4" | "ORDER" | "ITERATION" -> Some R4
  | "R5" | "PRINT" | "TRACE" -> Some R5
  | "R6" | "DOMAIN" | "TOPLEVEL" -> Some R6
  | "R7" | "TAINT" -> Some R7
  | "R8" | "HOT" | "ALLOC" -> Some R8
  | "R9" | "ESCAPE" -> Some R9
  | _ -> None

let rule_doc = function
  | R1 -> "determinism: no Unix/Sys.time/Random under lib/ (annotated uses ok in harnesses)"
  | R2 -> "no bare polymorphic compare in hot libraries and harnesses"
  | R3 -> "Vclock in-place ops require [@owned]"
  | R4 -> "Hashtbl iteration must be [@order_ok] in history-affecting code"
  | R5 -> "no stdout/stderr printing in lib/; trace through the Obs emitters"
  | R6 -> "no toplevel mutable state in lib/ (domain-shared across parallel runs)"
  | R7 -> "determinism taint: no nondeterminism source reachable from protocol/engine code"
  | R8 -> "[@hot] functions must not allocate closures, boxed floats, or tuples"
  | R9 -> "no toplevel closures over mutable state (R6 through the call graph)"

(* Rule families group the rules by the invariant they protect; reported in
   the schema-2 JSON output so downstream tooling can bucket findings. *)
let rule_family = function
  | R1 | R7 -> "determinism"
  | R2 -> "poly-compare"
  | R3 -> "ownership"
  | R4 -> "iteration-order"
  | R5 -> "printing"
  | R6 | R9 -> "domain-safety"
  | R8 -> "allocation"

type finding = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  context : string;  (** innermost enclosing let-binding, or "<toplevel>" *)
  lexeme : string;  (** the flagged identifier or operator *)
  message : string;
  chain : string list;
      (** call-graph path for interprocedural findings (R7/R9): entry point
          first, flagged definition last; [[]] for intraprocedural rules *)
  fingerprint : string;
      (** line-number independent identity: rule|file|context|lexeme|n *)
}

exception Parse_error of string

(* ---- path scoping ---------------------------------------------------- *)

(* [lib_sub "a/b/lib/core/state.ml"] is [Some "core"]. *)
let lib_sub path =
  let rec go = function
    | "lib" :: rest -> (
        match rest with [] -> None | [ _file ] -> Some "" | sub :: _ -> Some sub)
    | _ :: rest -> go rest
    | [] -> None
  in
  go (String.split_on_char '/' path)

(* The first path component naming a linted top-level tree decides the
   scope: library code ([lib/<sub>]) carries every determinism obligation,
   while the harness trees ([bin/], [bench/], [tools/]) are self-linted for
   the rules that still make sense off the simulator ([@wallclock_ok] and
   [@print_ok] mark their deliberate wall-clock/printing uses). *)
type scope_dir = Lib of string | Bin | Bench | Tools | Unscoped

let scope_dir path =
  let rec go = function
    | "lib" :: rest ->
        Lib (match rest with [] | [ _ ] -> "" | sub :: _ -> sub)
    | "bin" :: _ -> Bin
    | "bench" :: _ -> Bench
    | "tools" :: _ -> Tools
    | _ :: rest -> go rest
    | [] -> Unscoped
  in
  go (String.split_on_char '/' path)

let hot_libs = [ "data"; "sim"; "net"; "core" ]

let history_libs = [ "core"; "consistency"; "data"; "twopc"; "walter"; "rococo" ]

(* R7 taint chains must end in protocol/engine code: a nondeterminism source
   only matters if the deterministic core can actually reach it. *)
let entry_libs =
  [ "core"; "sim"; "net"; "data"; "consistency"; "twopc"; "walter"; "rococo" ]

let rule_applies rule path =
  match scope_dir path with
  | Lib sub -> (
      match rule with
      | R1 | R3 | R6 | R9 -> true
      | R2 -> List.mem sub hot_libs
      | R4 -> List.mem sub history_libs
      (* the experiment harness IS the figure printer; everything else in
         lib/ must trace through the observability sink *)
      | R5 -> not (String.equal sub "experiments")
      (* sss_par owns the sanctioned Domain fan-out *)
      | R7 -> not (String.equal sub "par")
      | R8 -> true)
  | Bin | Bench | Tools -> (
      match rule with
      | R1 | R2 | R3 | R8 -> true
      | R4 | R5 | R6 | R7 | R9 -> false)
  | Unscoped -> false

(* ---- identifier tables ----------------------------------------------- *)

let poly_named = [ "compare"; "min"; "max" ]

let poly_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* Applications of these are considered int- or float-valued, which makes a
   surrounding comparison statically monomorphic at a scalar type. *)
let scalar_funs =
  [
    (* arithmetic *)
    "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "succ"; "pred"; "abs"; "~-"; "+."; "-."; "*."; "/."; "~-."; "not";
    "float_of_int"; "int_of_char"; "int_of_float";
    (* stdlib lengths and scalar projections *)
    "Array.length"; "String.length"; "Bytes.length"; "List.length";
    "Hashtbl.length"; "Queue.length"; "Buffer.length"; "Char.code";
    "Float.of_int"; "Int.min"; "Int.max"; "Int.abs"; "Float.min"; "Float.max";
    (* project scalar projections (vector-clock entries, sizes, stamps) *)
    "Vclock.get"; "Vclock.size"; "Nlog.size"; "Nlog.most_recent_local";
    "Squeue.length"; "Commitq.length"; "Stampset.cardinal"; "Sim.now";
  ]

let vclock_owned_ops = [ "set_into"; "max_into"; "blit"; "unsafe_of_array" ]

(* R5: direct stdout/stderr printers.  [Printf.sprintf]/[Format.asprintf]
   and the [pp_print_*] combinators build strings or print to an explicit
   formatter and stay legal. *)
let print_funs =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes";
    "prerr_string"; "prerr_endline"; "prerr_newline"; "prerr_char";
    "prerr_int"; "prerr_float"; "prerr_bytes";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Format.print_string"; "Format.print_newline";
  ]

(* ---- traversal ------------------------------------------------------- *)

let ident_string (lid : Longident.t) = String.concat "." (Longident.flatten lid)

(* Strip a [Stdlib.] qualification so [Stdlib.compare] and [compare] are the
   same lexeme. *)
let strip_stdlib name =
  match String.index_opt name '.' with
  | Some 6 when String.equal (String.sub name 0 6) "Stdlib" ->
      String.sub name 7 (String.length name - 7)
  | _ -> name

let scalar_types = [ "int"; "float"; "bool"; "char"; "unit" ]

(* Syntactic approximation of "this expression has an immediate or float
   type", used to exempt monomorphic comparisons from R2. *)
let rec scalarish (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _ | Pconst_float _) -> true
  (* constant constructors ([], None, true, Genesis, ...) compare by tag *)
  | Pexp_construct (_, None) -> true
  | Pexp_constraint (inner, ty) -> (
      match ty.ptyp_desc with
      | Ptyp_constr ({ txt = Lident t; _ }, []) when List.mem t scalar_types ->
          true
      | _ -> scalarish inner)
  | Pexp_apply (f, _) -> (
      match f.pexp_desc with
      | Pexp_ident { txt; _ } ->
          List.mem (strip_stdlib (ident_string txt)) scalar_funs
      | _ -> false)
  | _ -> false

(* Name-based approximation of "this is a vector clock": the one structured
   type whose polymorphic comparison already bit us once (PR 1). *)
let vclock_named name =
  let last =
    match List.rev (String.split_on_char '.' name) with n :: _ -> n | [] -> name
  in
  (* strip a trailing numeric disambiguator: vc1, commit_vc2, ... *)
  let stem =
    let n = String.length last in
    let rec start i =
      if i > 0 && last.[i - 1] >= '0' && last.[i - 1] <= '9' then start (i - 1)
      else i
    in
    String.sub last 0 (start n)
  in
  String.equal stem "vc" || String.equal stem "vclock"
  || String.ends_with ~suffix:"_vc" stem
  || String.ends_with ~suffix:"_vclock" stem

(* Operands on which a polymorphic comparison operator is clearly not a
   scalar comparison: structured literals, or anything vclock-named. *)
let rec suspectish (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ | Pexp_fun _ | Pexp_function _
    ->
      true
  | Pexp_construct (_, Some _) | Pexp_variant (_, Some _) -> true
  | Pexp_constant (Pconst_string _) -> true
  | Pexp_ident { txt; _ } -> vclock_named (ident_string txt)
  | Pexp_field (_, { txt; _ }) -> vclock_named (ident_string txt)
  | Pexp_constraint (inner, _) -> suspectish inner
  | _ -> false

let attr_rule (attr : Parsetree.attribute) =
  match attr.attr_name.txt with
  | "poly_ok" -> Some R2
  | "owned" -> Some R3
  | "order_ok" -> Some R4
  | "print_ok" -> Some R5
  | "domain_safe" -> Some R6
  (* harness-side wall-clock measurement; honoured outside lib/ only
     (push_attrs gates on scope) *)
  | "wallclock_ok" -> Some R1
  | "alloc_ok" -> Some R8  (* deliberate cold-branch allocation in [@hot] code *)
  | _ -> None

type state = {
  mutable findings : finding list;
  suppressed : int array;  (** nesting depth of each rule's suppression *)
  mutable context : string option list;  (** binding-name stack, innermost first *)
  occurrences : (string, int) Hashtbl.t;  (** fingerprint deduplication *)
  rules : rule list;
  file : string;
  scope : string;  (** logical path used for rule scoping *)
  owned_allow : string list;
  modname : string;
}

let context_name st =
  match List.find_map Fun.id st.context with Some c -> c | None -> "<toplevel>"

let enabled st rule =
  List.mem rule st.rules && rule_applies rule st.scope
  && st.suppressed.(rule_index rule) = 0

let report st rule ~loc ~lexeme ~message =
  let context = context_name st in
  let base =
    Printf.sprintf "%s|%s|%s|%s" (rule_name rule) st.scope context lexeme
  in
  let n = match Hashtbl.find_opt st.occurrences base with Some n -> n + 1 | None -> 0 in
  Hashtbl.replace st.occurrences base n;
  let pos = loc.Location.loc_start in
  st.findings <-
    {
      rule;
      file = st.file;
      line = pos.Lexing.pos_lnum;
      col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      context;
      lexeme;
      message;
      chain = [];
      fingerprint = Printf.sprintf "%s|%d" base n;
    }
    :: st.findings

(* R1: banned ambient-nondeterminism identifiers. *)
let check_determinism st ~loc name =
  if enabled st R1 then
    let banned =
      match String.split_on_char '.' (strip_stdlib name) with
      | "Unix" :: _ -> true
      | "Random" :: _ -> true
      | [ "Sys"; "time" ] -> true
      | _ -> false
    in
    if banned then
      report st R1 ~loc ~lexeme:name
        ~message:
          (Printf.sprintf
             "nondeterministic primitive %s is banned in lib/ (use virtual \
              time / Prng; DESIGN.md: determinism)"
             name)

(* R3: Vclock in-place operations. *)
let vclock_owned_op name =
  match List.rev (String.split_on_char '.' name) with
  | op :: "Vclock" :: _ when List.mem op vclock_owned_ops -> Some op
  | _ -> None

let owned_allowed st =
  let ctx = context_name st in
  List.exists
    (fun entry ->
      String.equal entry ctx || String.equal entry (st.modname ^ "." ^ ctx))
    st.owned_allow

let check_vclock st ~loc name =
  if enabled st R3 then
    match vclock_owned_op name with
    | Some _ when owned_allowed st -> ()
    | Some _ ->
        report st R3 ~loc ~lexeme:name
          ~message:
            (Printf.sprintf
               "in-place Vclock operation %s requires [@owned] (exclusively \
                owned, never-published clock; DESIGN.md §8)"
               name)
    | None -> ()

(* R4: Hashtbl iteration. *)
let check_iteration st ~loc name =
  if enabled st R4 then
    match strip_stdlib name with
    | "Hashtbl.fold" | "Hashtbl.iter" ->
        report st R4 ~loc ~lexeme:name
          ~message:
            (Printf.sprintf
               "%s iterates in bucket order; sort the result or annotate \
                [@order_ok] if the result is order-insensitive"
               name)
    | _ -> ()

(* R5: ad-hoc printing on library code paths. *)
let check_print st ~loc name =
  if enabled st R5 then
    if List.mem (strip_stdlib name) print_funs then
      report st R5 ~loc ~lexeme:name
        ~message:
          (Printf.sprintf
             "%s prints directly from library code; emit a typed trace event \
              through an Obs emitter instead (docs/OBSERVABILITY.md), or annotate \
              [@print_ok] for deliberate CLI output"
             name)

(* R2, bare mention (e.g. [List.sort compare]). *)
let check_poly_bare st ~loc name =
  if enabled st R2 then
    let s = strip_stdlib name in
    if List.mem s poly_named || List.mem s poly_ops || String.equal s "Hashtbl.hash"
    then
      report st R2 ~loc ~lexeme:name
        ~message:
          (Printf.sprintf
             "polymorphic %s used as a value in a hot library; pass a \
              monomorphic comparator (Int.compare, Ids.compare_txn, ...) or \
              annotate [@poly_ok]"
             name)

(* R2, application head: exempt if an operand is syntactically scalar.
   Attributes bind tighter than infix operators, so in [a = b [@poly_ok]]
   the attribute lands on the operand [b]; honour it there too. *)
let operand_poly_ok args =
  List.exists
    (fun ((_, a) : _ * Parsetree.expression) ->
      List.exists
        (fun at -> match attr_rule at with Some R2 -> true | _ -> false)
        a.pexp_attributes)
    args

let check_poly_apply st ~loc name args =
  if enabled st R2 && not (operand_poly_ok args) then
    let s = strip_stdlib name in
    let scalar_operand = List.exists (fun (_, a) -> scalarish a) args in
    if String.equal s "Hashtbl.hash" then
      report st R2 ~loc ~lexeme:name
        ~message:
          "polymorphic Hashtbl.hash in a hot library; use a monomorphic hash \
           or annotate [@poly_ok]"
    else if List.mem s poly_named && not scalar_operand then
      report st R2 ~loc ~lexeme:name
        ~message:
          (Printf.sprintf
             "polymorphic %s on non-scalar operands in a hot library; use \
              Int.%s / Float.%s / a monomorphic comparator, or annotate \
              [@poly_ok]"
             name s s)
    else if
      List.mem s poly_ops
      && (not scalar_operand)
      && List.exists (fun (_, a) -> suspectish a) args
    then
      report st R2 ~loc ~lexeme:name
        ~message:
          (Printf.sprintf
             "polymorphic %s on a structured operand in a hot library; use a \
              monomorphic comparison (Ids.equal_txn, String.equal, \
              Vclock.equal, ...) or annotate [@poly_ok]"
             name)

(* ---- R6: toplevel mutable state -------------------------------------- *)

(* Applications of these construct mutable state.  [Atomic.make] is
   deliberately absent: atomics are the sanctioned cross-domain primitive. *)
let mutable_creators =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create";
    "Array.make"; "Array.create_float"; "Array.init"; "Bytes.create";
    "Bytes.make"; "Weak.create";
  ]

(* Field names declared [mutable] anywhere in the file: the syntactic
   stand-in for "this record literal builds a mutable record".  Records
   whose type lives in another module are invisible to this approximation;
   the creator table above catches the common stdlib cases. *)
let mutable_field_names structure =
  let acc = ref [] in
  let open Ast_iterator in
  let type_declaration self (td : Parsetree.type_declaration) =
    (match td.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun (l : Parsetree.label_declaration) ->
            if l.pld_mutable = Asttypes.Mutable then acc := l.pld_name.txt :: !acc)
          labels
    | _ -> ());
    default_iterator.type_declaration self td
  in
  let it = { default_iterator with type_declaration } in
  it.structure it structure;
  !acc

(* The RHS shapes that put mutable state (or a lazy thunk, which is not
   safe to force from two domains) in a module-level binding.  Functions
   are fine: they build their state per call. *)
let rec r6_suspect mut_fields (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let s = strip_stdlib (ident_string txt) in
      if List.mem s mutable_creators then Some s else None
  | Pexp_record (fields, _) ->
      if
        List.exists
          (fun ((lid : _ Asttypes.loc), _) ->
            let name =
              match List.rev (Longident.flatten lid.txt) with n :: _ -> n | [] -> ""
            in
            List.mem name mut_fields)
          fields
      then Some "{mutable record}"
      else None
  | Pexp_lazy _ -> Some "lazy"
  | Pexp_tuple es -> List.find_map (r6_suspect mut_fields) es
  | Pexp_constraint (inner, _) -> r6_suspect mut_fields inner
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) -> r6_suspect mut_fields body
  | _ -> None

let check_r6_binding st ~mut_fields (vb : Parsetree.value_binding) =
  if
    enabled st R6
    && not
         (List.exists
            (fun a -> match attr_rule a with Some R6 -> true | _ -> false)
            vb.pvb_attributes)
  then
    match r6_suspect mut_fields vb.pvb_expr with
    | None -> ()
    | Some lexeme ->
        let name =
          match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> Some txt | _ -> None
        in
        st.context <- name :: st.context;
        report st R6 ~loc:vb.pvb_loc ~lexeme
          ~message:
            (Printf.sprintf
               "module-level binding constructs mutable state (%s), shared \
                across domains when runs fan out in parallel; make it per-run \
                state threaded through Config/run setup, use Atomic.t, or \
                annotate [@@domain_safe] with a justification"
               lexeme);
        st.context <- List.tl st.context

(* Module-level bindings only: a [let] inside a function builds per-call
   state and is exempt.  Nested [module X = struct ... end] items are still
   module-level state, so the walk descends; functor bodies are skipped
   (their bindings are per-application). *)
let rec r6_structure st ~mut_fields (str : Parsetree.structure) =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter (check_r6_binding st ~mut_fields) vbs
      | Pstr_module mb -> r6_module_binding st ~mut_fields mb
      | Pstr_recmodule mbs -> List.iter (r6_module_binding st ~mut_fields) mbs
      | Pstr_include { pincl_mod = me; _ } -> r6_module_expr st ~mut_fields me
      | _ -> ())
    str

and r6_module_binding st ~mut_fields (mb : Parsetree.module_binding) =
  (* [@@domain_safe] on the module suppresses for its whole body *)
  if
    not
      (List.exists
         (fun a -> match attr_rule a with Some R6 -> true | _ -> false)
         mb.pmb_attributes)
  then
    r6_module_expr st ~mut_fields mb.pmb_expr

and r6_module_expr st ~mut_fields (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure str -> r6_structure st ~mut_fields str
  | Pmod_constraint (inner, _) -> r6_module_expr st ~mut_fields inner
  | _ -> ()

let push_attrs st attrs =
  let in_lib = match scope_dir st.scope with Lib _ -> true | _ -> false in
  let pushed =
    List.filter_map
      (fun (a : Parsetree.attribute) ->
        match attr_rule a with
        (* lib/ has no legitimate wall clock: [@wallclock_ok] only buys
           suppression in the harness trees *)
        | Some R1 when in_lib && String.equal a.attr_name.txt "wallclock_ok" ->
            None
        | Some r ->
            st.suppressed.(rule_index r) <- st.suppressed.(rule_index r) + 1;
            Some r
        | None -> None)
      attrs
  in
  pushed

let pop_attrs st pushed =
  List.iter
    (fun r -> st.suppressed.(rule_index r) <- st.suppressed.(rule_index r) - 1)
    pushed

let make_iterator st =
  let open Ast_iterator in
  let judge_ident ~loc name =
    check_determinism st ~loc name;
    check_vclock st ~loc name;
    check_iteration st ~loc name;
    check_print st ~loc name
  in
  let expr self (e : Parsetree.expression) =
    let pushed = push_attrs st e.pexp_attributes in
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        let name = ident_string txt in
        judge_ident ~loc name;
        check_poly_apply st ~loc name args;
        List.iter (fun (_, a) -> self.expr self a) args
    | Pexp_ident { txt; loc } ->
        let name = ident_string txt in
        judge_ident ~loc name;
        check_poly_bare st ~loc name
    | _ -> default_iterator.expr self e);
    pop_attrs st pushed
  in
  let value_binding self (vb : Parsetree.value_binding) =
    let pushed = push_attrs st vb.pvb_attributes in
    let name =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } -> Some txt
      | _ -> None
    in
    st.context <- name :: st.context;
    default_iterator.value_binding self vb;
    st.context <- List.tl st.context;
    pop_attrs st pushed
  in
  { default_iterator with expr; value_binding }

(* ---- entry points ---------------------------------------------------- *)

let parse_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> raise (Parse_error msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      try Parse.implementation lexbuf
      with exn ->
        let msg =
          match Location.error_of_exn exn with
          | Some (`Ok report) ->
              Format.asprintf "%a" Location.print_report report
          | _ -> Printexc.to_string exn
        in
        raise (Parse_error (Printf.sprintf "%s: %s" path msg)))

let modname_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let check_file ?(rules = all_rules) ?(owned_allow = []) ?scope_as path =
  let scope = match scope_as with Some s -> s | None -> path in
  let structure = parse_file path in
  let st =
    {
      findings = [];
      suppressed = Array.make (List.length all_rules) 0;
      context = [];
      occurrences = Hashtbl.create 64;
      rules;
      file = path;
      scope;
      owned_allow;
      modname = modname_of path;
    }
  in
  let it = make_iterator st in
  it.structure it structure;
  if List.mem R6 rules then
    r6_structure st ~mut_fields:(mutable_field_names structure) structure;
  List.rev st.findings

(* Recursively collect the [.ml] files under [path] (a file or directory),
   sorted so findings and fingerprints are stable across filesystems. *)
let rec collect_ml path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> collect_ml (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

(* ---- baselines ------------------------------------------------------- *)

(* A baseline is a file of accepted fingerprints, one per line ([#] starts a
   comment).  It is the escape hatch for adopting the linter on a codebase
   with historical findings without annotating them all at once. *)

let read_baseline path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line ->
              let line = String.trim line in
              let acc =
                if String.equal line "" || Char.equal line.[0] '#' then acc
                else line :: acc
              in
              go acc
          | exception End_of_file -> List.rev acc
        in
        go [])

let write_baseline path findings =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "# sss_lint baseline: accepted fingerprints, one per line.\n";
      List.iter (fun f -> output_string oc (f.fingerprint ^ "\n")) findings)

(* Split [findings] into (fresh, baselined) against the fingerprints in
   [known]. *)
let apply_baseline ~known findings =
  List.partition (fun f -> not (List.mem f.fingerprint known)) findings
