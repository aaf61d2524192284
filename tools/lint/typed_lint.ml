(** sss_lint typed engine: whole-program analysis over dune's [-bin-annot]
    [.cmt] artifacts ([Cmt_format] + [Typedtree] from compiler-libs).

    Where the syntactic pass in {!Lint} matches identifier *strings*, this
    engine works on resolved [Path.t]s and instantiated types, then links
    every compilation unit of the project into one program:

    - {b name resolution}: wrapper-mangled components
      ([Sss_sim__Equeue]) are demangled, library wrapper heads dropped,
      and a project-wide module-alias table (from [Tmod_ident] bindings,
      the [module U = Unix] laundering trick) is applied by iterative
      longest-prefix rewriting — so R1 flags [V.time] when [V] is an
      alias chain ending at [Unix], which the Parsetree pass cannot see;
    - {b typed R2}: a polymorphic primitive occurrence is judged by the
      instantiated type at the use site — scalar instantiations
      (int/float/bool/char/unit, or a type alias resolving to one, e.g.
      [Ids.node = int]) pass, anything structured or still polymorphic is
      flagged (constant-constructor operands exempt, [@poly_ok] respected);
    - {b call graph}: every module-level binding is a node; references
      (applied or passed as values) are edges, with local [Pident]s mapped
      through their unique stamps so shadowing cannot forge edges.

    On top of the graph, the three interprocedural rule families:

    - {b R7 determinism taint}: occurrences of nondeterminism sources
      ([Unix.*], [Random.*], [Sys.time], un-[@order_ok]ed
      [Hashtbl.iter/fold], [Domain.*] outside [lib/par]) are traced
      backwards; if a definition in an entry-scope library
      ({!Lint.entry_libs}) reaches the source through at least one call
      edge, the source is reported with the shortest entry→source chain.
      [@deterministic] on a binding is a taint barrier ("audited").
    - {b R8 hot-path allocation}: inside [[@hot]]-marked bindings the
      typed tree must contain no closure (a [Texp_function] off the
      binding's currying spine), no [lazy], no tuple construction, no
      partial application, and no float boxing (float-typed argument to a
      polymorphic formal, float in a constructor, float field in a
      non-float-record, float stored into a mixed record).  [@alloc_ok]
      marks a deliberate cold branch.
    - {b R9 escaping mutable state}: {!Lint}'s R6 through the call graph —
      a module-level binding whose value is a closure capturing locally
      created mutable state ([let c = let r = ref 0 in fun () -> ...]),
      directly or via a "factory" function returning such a closure.
      [[@@domain_safe]] suppresses, as for R6.

    Limitations (documented in docs/LINT.md): [let module] aliases are
    keyed per unit (two same-named local aliases in one unit share a key);
    R9's mutable-creator check on locals is name-based. *)

open Typedtree

(* ---- small helpers --------------------------------------------------- *)

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let rec path_comps (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_comps p @ [ s ]
  | Path.Papply (p, _) -> path_comps p
  | Path.Pextra_ty (p, _) -> path_comps p

let path_pident_unique (p : Path.t) =
  match p with Path.Pident id -> Some (Ident.unique_name id) | _ -> None

(* "Sss_sim__Equeue" -> "Equeue" (keep the tail after the last "__"). *)
let demangle_comp c =
  let n = String.length c in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if c.[i] = '_' && c.[i + 1] = '_' then last_sep (i + 1) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some j when j < n -> String.sub c j (n - j)
  | _ -> c

(* ---- program representation ------------------------------------------ *)

type param_class = Pc_scalar | Pc_var | Pc_name of string list | Pc_other

type hot_alloc =
  | Ha_closure
  | Ha_lazy
  | Ha_tuple
  | Ha_partial of string  (* lexeme of the partially applied head *)
  | Ha_float_app of string list * string option  (* callee comps, pident *)
  | Ha_float_box of string  (* constructor / field lexeme *)

type r6_shape =
  | R6_creator of string list * string option  (* head comps, pident *)
  | R6_definite of string  (* lexeme *)

type okind =
  | K_ident of {
      pclass : param_class;
      exempt_operand : bool;  (* const-ctor arg or [@poly_ok] on an operand *)
      head_ident : string option;  (* Ident.unique_name for Pident paths *)
    }
  | K_hot of hot_alloc
  | K_r6 of r6_shape
  | K_r9_direct of string  (* creator lexeme captured by the closure *)

type occ = {
  o_kind : okind;
  o_comps : string list;  (* raw path components; [] for non-name kinds *)
  o_file : string;
  o_scope : string;
  o_line : int;
  o_col : int;
  o_context : string;
  o_unit : string;
  o_prefixes : string list;  (* qualification candidates, longest first *)
  o_def : string option;  (* canonical name of the enclosing def *)
  o_sup : int;  (* suppression bitmask by Lint.rule_index *)
}

type def = {
  d_name : string;  (* canonical: "Unit.Sub.binding" *)
  d_unit : string;
  d_scope : string;
  d_file : string;
  d_line : int;
  d_col : int;
  d_context : string;
  d_hot : bool;
  d_det : bool;  (* [@deterministic]: taint barrier *)
  d_entry : bool;  (* lives in an R7 entry-scope library *)
  d_toplevel_value : bool;  (* module-level non-function binding *)
  d_sup9 : bool;  (* [@@domain_safe] *)
  d_prefixes : string list;
  mutable d_factory : bool;
  mutable d_result_apps : (string list * string option) list;
}

type program = {
  mutable p_occs : occ list;  (* reversed during the walk *)
  p_defs : (string, def) Hashtbl.t;
  p_def_order : string list ref;  (* insertion order, for determinism *)
  p_def_idents : (string, string) Hashtbl.t;  (* Ident.unique_name -> def *)
  p_aliases : (string, string list) Hashtbl.t;  (* qualified alias -> target *)
  p_tyaliases : (string, string * string list) Hashtbl.t;
      (* canonical type name -> owner unit, raw target comps *)
  mutable p_wrappers : string list;  (* library wrapper module names *)
}

let new_program () =
  {
    p_occs = [];
    p_defs = Hashtbl.create 256;
    p_def_order = ref [];
    p_def_idents = Hashtbl.create 256;
    p_aliases = Hashtbl.create 64;
    p_tyaliases = Hashtbl.create 64;
    p_wrappers = [];
  }

(* ---- per-unit walk state --------------------------------------------- *)

type wstate = {
  prog : program;
  w_file : string;
  w_scope : string;
  w_unit : string;
  sup : int array;  (* suppression depth per rule *)
  mutable ctx : string option list;
  mutable modpath : string list;  (* outermost first *)
  mutable cur_def : def option;
  mutable hot_depth : int;
  mutable spine : bool;
  mutable in_functor : bool;
}

let context_name st =
  match List.find_map Fun.id st.ctx with Some c -> c | None -> "<toplevel>"

let sup_mask st =
  let m = ref 0 in
  Array.iteri (fun i d -> if d > 0 then m := !m lor (1 lsl i)) st.sup;
  !m

let in_lib st = match Lint.scope_dir st.w_scope with Lint.Lib _ -> true | _ -> false

let push_attrs st (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match Lint.attr_rule a with
      | Some Lint.R1 when in_lib st && String.equal a.attr_name.txt "wallclock_ok"
        ->
          None
      | Some r ->
          st.sup.(Lint.rule_index r) <- st.sup.(Lint.rule_index r) + 1;
          Some r
      | None -> None)
    attrs

let pop_attrs st pushed =
  List.iter (fun r -> st.sup.(Lint.rule_index r) <- st.sup.(Lint.rule_index r) - 1) pushed

(* Qualification candidates at the current module path ([modpath] is
   innermost-first): with [w_unit = "Network"] and [modpath = ["Iq"]] this
   is ["Network.Iq"; "Network"; ""]. *)
let prefixes_of ~unit_name modpath =
  let rec go rev acc =
    match rev with
    | [] -> List.rev ("" :: unit_name :: acc)
    | _ :: tl ->
        go tl ((unit_name ^ "." ^ String.concat "." (List.rev rev)) :: acc)
  in
  go modpath []

let record_occ st ?(comps = []) ?def_name ~loc kind =
  let pos = loc.Location.loc_start in
  let def_name =
    match def_name with
    | Some _ as d -> d
    | None -> Option.map (fun d -> d.d_name) st.cur_def
  in
  st.prog.p_occs <-
    {
      o_kind = kind;
      o_comps = comps;
      o_file = st.w_file;
      o_scope = st.w_scope;
      o_line = pos.Lexing.pos_lnum;
      o_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      o_context = context_name st;
      o_unit = st.w_unit;
      o_prefixes = prefixes_of ~unit_name:st.w_unit st.modpath;
      o_def = def_name;
      o_sup = sup_mask st;
    }
    :: st.prog.p_occs

(* ---- type classification --------------------------------------------- *)

let scalar_predefs =
  [ Predef.path_int; Predef.path_float; Predef.path_bool; Predef.path_char;
    Predef.path_unit ]

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let rec first_param ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | Types.Tpoly (t, _) -> first_param t
  | _ -> None

let classify_param ty =
  match first_param ty with
  | None -> Pc_other
  | Some a -> (
      match Types.get_desc a with
      | Types.Tconstr (p, [], _) ->
          if List.exists (Path.same p) scalar_predefs then Pc_scalar
          else Pc_name (path_comps p)
      | Types.Tvar _ | Types.Tunivar _ -> Pc_var
      | _ -> Pc_other)

(* Walk the generic scheme of a callee alongside the actual arguments:
   a [Tvar] formal receiving a float actual boxes it (minus the flat
   float-array primitives, exempted after resolution in phase 2). *)
let float_into_poly_formal (vd : Types.value_description) args =
  let rec go ty args =
    match (Types.get_desc ty, args) with
    | _, [] -> false
    | Types.Tpoly (t, _), _ -> go t args
    | Types.Tarrow (_, formal, rest, _), (_, actual) :: more ->
        let hit =
          match (Types.get_desc formal, actual) with
          | (Types.Tvar _ | Types.Tunivar _), Some (e : expression) ->
              is_float_ty e.exp_type
          | _ -> false
        in
        hit || go rest more
    | _ -> false
  in
  go vd.Types.val_type args

(* ---- R9 local analysis ----------------------------------------------- *)

(* Does this RHS create mutable state?  Name-based on the raw head (the
   fixture/real cases use literal [ref]/[Hashtbl.create]); records and
   array literals are judged from types. *)
let rec creates_mutable (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      let s = Lint.strip_stdlib (String.concat "." (path_comps p)) in
      if List.mem s Lint.mutable_creators then Some s else None
  | Texp_array _ -> Some "[|...|]"
  | Texp_record { fields; _ }
    when Array.exists
           (fun ((ld : Types.label_description), _) ->
             ld.Types.lbl_mut = Asttypes.Mutable)
           fields ->
      Some "{mutable record}"
  | Texp_let (_, _, b) | Texp_sequence (_, b) | Texp_open (_, b) ->
      creates_mutable b
  | _ -> None

(* Collect every [Pident] unique name referenced anywhere under [e]. *)
let referenced_uniques (e : expression) =
  let acc = Hashtbl.create 16 in
  let open Tast_iterator in
  let expr self (e : expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        Hashtbl.replace acc (Ident.unique_name id) ()
    | _ -> ());
    default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  acc

(* The value spine of a binding: mutable locals introduced by [let]s on the
   way down, and whether the final value is a closure capturing one of
   them.  Returns [Some creator_lexeme] on capture. *)
let escaped_capture (e : expression) =
  let rec go muts e =
    match e.exp_desc with
    | Texp_let (_, vbs, body) ->
        let muts =
          List.fold_left
            (fun muts vb ->
              match (vb.vb_pat.pat_desc, creates_mutable vb.vb_expr) with
              | Tpat_var (id, _), Some lex -> (Ident.unique_name id, lex) :: muts
              | _ -> muts)
            muts vbs
        in
        go muts body
    | Texp_sequence (_, b) | Texp_open (_, b) -> go muts b
    | Texp_letmodule (_, _, _, _, b) -> go muts b
    | Texp_function _ -> (
        match muts with
        | [] -> None
        | _ ->
            let refs = referenced_uniques e in
            List.find_map
              (fun (u, lex) -> if Hashtbl.mem refs u then Some lex else None)
              muts)
    | _ -> None
  in
  go [] e

(* Applications in result position (through let/sequence spines and
   if/match branches): the calls whose result becomes this binding's
   value.  Used to propagate R9 "factory" status. *)
let result_apps (e : expression) =
  let acc = ref [] in
  let rec go e =
    match e.exp_desc with
    | Texp_let (_, _, b) | Texp_sequence (_, b) | Texp_open (_, b) -> go b
    | Texp_letmodule (_, _, _, _, b) -> go b
    | Texp_ifthenelse (_, t, f) ->
        go t;
        Option.iter go f
    | Texp_match (_, cases, _) -> List.iter (fun c -> go c.c_rhs) cases
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
        acc := (path_comps p, path_pident_unique p) :: !acc
    | _ -> ()
  in
  go e;
  !acc

(* Unwrap a function definition's currying spine (single-pattern chunks
   merge into one compiled function) down to the body expressions. *)
let rec spine_bodies (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_rhs; c_guard = None; _ } ]; _ } ->
      spine_bodies c_rhs
  | Texp_function { cases; _ } -> List.map (fun c -> c.c_rhs) cases
  | _ -> [ e ]

let is_function (e : expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* ---- R6 typed spine --------------------------------------------------- *)

let rec r6_shape (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      Some (R6_creator (path_comps p, path_pident_unique p))
  | Texp_record { fields; representation; _ } -> (
      match representation with
      | _
        when Array.exists
               (fun ((ld : Types.label_description), _) ->
                 ld.Types.lbl_mut = Asttypes.Mutable)
               fields ->
          Some (R6_definite "{mutable record}")
      | _ -> None)
  | Texp_array (_ :: _) -> Some (R6_definite "[|...|]")
  | Texp_lazy _ -> Some (R6_definite "lazy")
  | Texp_tuple es -> List.find_map r6_shape es
  | Texp_let (_, _, b) | Texp_sequence (_, b) | Texp_open (_, b) -> r6_shape b
  | Texp_letmodule (_, _, _, _, b) -> r6_shape b
  | _ -> None

(* ---- the per-unit walk ------------------------------------------------ *)

let const_ctor_arg args =
  List.exists
    (fun ((_ : Asttypes.arg_label), a) ->
      match a with
      | Some (e : expression) -> (
          (match e.exp_desc with
          | Texp_construct (_, _, []) -> true
          | Texp_variant (_, None) -> true
          | _ -> false)
          || List.exists
               (fun (at : Parsetree.attribute) ->
                 match Lint.attr_rule at with Some Lint.R2 -> true | _ -> false)
               e.exp_attributes)
      | None -> false)
    args

let hot st = st.hot_depth > 0

let rec unwrap_mod (me : module_expr) =
  match me.mod_desc with
  | Tmod_constraint (m, _, _, _) -> unwrap_mod m
  | _ -> me

let qualified_name st name =
  match st.modpath with
  | [] -> name
  | mp -> String.concat "." (List.rev mp) ^ "." ^ name

let register_alias st name (me : module_expr) =
  match (unwrap_mod me).mod_desc with
  | Tmod_ident (p, _) ->
      Hashtbl.replace st.prog.p_aliases
        (st.w_unit ^ "." ^ qualified_name st name)
        (path_comps p)
  | _ -> ()

let make_def st ?name ~loc ~hot_def ~det ~domain_safe ~is_fun () =
  let nm = match name with Some n -> n | None -> "<toplevel>" in
  let context = qualified_name st nm in
  let d_name = st.w_unit ^ "." ^ context in
  let pos = loc.Location.loc_start in
  let d =
    {
      d_name;
      d_unit = st.w_unit;
      d_scope = st.w_scope;
      d_file = st.w_file;
      d_line = pos.Lexing.pos_lnum;
      d_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      d_context = context;
      d_hot = hot_def;
      d_det = det;
      d_entry =
        (match Lint.scope_dir st.w_scope with
        | Lint.Lib sub -> List.mem sub Lint.entry_libs
        | _ -> false);
      d_toplevel_value = (not is_fun) && not st.in_functor;
      d_sup9 = domain_safe;
      d_prefixes = prefixes_of ~unit_name:st.w_unit st.modpath;
      d_factory = false;
      d_result_apps = [];
    }
  in
  if not (Hashtbl.mem st.prog.p_defs d_name) then
    st.prog.p_def_order := d_name :: !(st.prog.p_def_order);
  Hashtbl.replace st.prog.p_defs d_name d;
  d

let make_iterator st =
  let open Tast_iterator in
  let record_ident ~loc (p : Path.t) (ty : Types.type_expr) args =
    record_occ st ~comps:(path_comps p) ~loc
      (K_ident
         {
           pclass = classify_param ty;
           exempt_operand =
             (match args with Some a -> const_ctor_arg a | None -> false);
           head_ident = path_pident_unique p;
         })
  in
  let expr self (e : expression) =
    let saved_spine = st.spine in
    let pushed = push_attrs st e.exp_attributes in
    (match e.exp_desc with
    | Texp_function { cases; _ } -> (
        if (not st.spine) && hot st then
          record_occ st ~loc:e.exp_loc (K_hot Ha_closure);
        match cases with
        | [ { c_guard = None; c_rhs; _ } ] ->
            (* single-pattern chunk: stays on the compiled function's
               currying spine *)
            st.spine <- true;
            self.expr self c_rhs
        | cases ->
            List.iter
              (fun c ->
                (match c.c_guard with
                | Some g ->
                    st.spine <- false;
                    self.expr self g
                | None -> ());
                st.spine <- false;
                self.expr self c.c_rhs)
              cases)
    | Texp_apply (({ exp_desc = Texp_ident (p, _, vd); _ } as head), args) ->
        record_ident ~loc:head.exp_loc p head.exp_type (Some args);
        if hot st then begin
          (match Types.get_desc e.exp_type with
          | Types.Tarrow _ ->
              record_occ st ~loc:e.exp_loc
                (K_hot
                   (Ha_partial
                      (Lint.strip_stdlib (String.concat "." (path_comps p)))))
          | _ -> ());
          if float_into_poly_formal vd args then
            record_occ st ~loc:e.exp_loc
              (K_hot (Ha_float_app (path_comps p, path_pident_unique p)))
        end;
        st.spine <- false;
        List.iter (fun (_, a) -> Option.iter (self.expr self) a) args
    | Texp_ident (p, _, _) -> record_ident ~loc:e.exp_loc p e.exp_type None
    | Texp_lazy inner ->
        if hot st then record_occ st ~loc:e.exp_loc (K_hot Ha_lazy);
        st.spine <- false;
        self.expr self inner
    | Texp_tuple es ->
        if hot st then record_occ st ~loc:e.exp_loc (K_hot Ha_tuple);
        st.spine <- false;
        List.iter (self.expr self) es
    | Texp_construct (_, cd, args) ->
        if hot st && List.exists (fun a -> is_float_ty a.exp_type) args then
          record_occ st ~loc:e.exp_loc
            (K_hot (Ha_float_box cd.Types.cstr_name));
        st.spine <- false;
        List.iter (self.expr self) args
    | Texp_record { fields; representation; extended_expression } ->
        (if hot st then
           let float_repr =
             match representation with
             | Types.Record_float -> true
             | _ -> false
           in
           if
             (not float_repr)
             && Array.exists
                  (fun ((_ : Types.label_description), rld) ->
                    match rld with
                    | Overridden (_, fe) -> is_float_ty fe.exp_type
                    | Kept _ -> false)
                  fields
           then
             record_occ st ~loc:e.exp_loc (K_hot (Ha_float_box "{float field}")));
        st.spine <- false;
        Option.iter (self.expr self) extended_expression;
        Array.iter
          (fun ((_ : Types.label_description), rld) ->
            match rld with Overridden (_, fe) -> self.expr self fe | Kept _ -> ())
          fields
    | Texp_setfield (obj, _, lbl, v) ->
        (if hot st && is_float_ty v.exp_type then
           let float_repr =
             match lbl.Types.lbl_repres with
             | Types.Record_float -> true
             | _ -> false
           in
           if not float_repr then
             record_occ st ~loc:e.exp_loc
               (K_hot (Ha_float_box ("<- " ^ lbl.Types.lbl_name))));
        st.spine <- false;
        self.expr self obj;
        self.expr self v
    | Texp_let (_, vbs, body)
      when st.spine && has_attr "#default" e.exp_attributes ->
        (* optional-argument default expansion ([?(prio = 100)]): the
           typechecker splices this let between curry chunks and the
           backend fuses the chain into one n-ary function — the next
           chunk is not a runtime closure, keep it on the spine *)
        st.spine <- false;
        List.iter (fun vb -> self.expr self vb.vb_expr) vbs;
        st.spine <- true;
        self.expr self body
    | Texp_letmodule (_, name, _, mexpr, _) ->
        (match name.txt with
        | Some n -> register_alias st n mexpr
        | None -> ());
        st.spine <- false;
        default_iterator.expr self e
    | _ ->
        st.spine <- false;
        default_iterator.expr self e);
    st.spine <- saved_spine;
    pop_attrs st pushed
  in
  (* Reached for [let]s nested in expressions and for structures inside
     local modules: context + suppression + [@hot] tracking, value spine on
     the RHS.  Module-level bindings go through [walk_toplevel_vb] instead
     (defs, R6/R9), which does not use this hook. *)
  let value_binding self (vb : value_binding) =
    let pushed = push_attrs st vb.vb_attributes in
    let name =
      match vb.vb_pat.pat_desc with
      | Tpat_var (_, l) -> Some l.txt
      | _ -> None
    in
    let was_hot = st.hot_depth in
    if has_attr "hot" vb.vb_attributes then st.hot_depth <- st.hot_depth + 1;
    st.ctx <- name :: st.ctx;
    (* Unlike a module-level binding (whose currying chain is a static
       closure), a [let]-bound function nested in a hot body is a fresh
       runtime allocation per evaluation: no value spine in hot code. *)
    st.spine <- not (hot st);
    self.expr self vb.vb_expr;
    st.ctx <- List.tl st.ctx;
    st.hot_depth <- was_hot;
    pop_attrs st pushed
  in
  { default_iterator with expr; value_binding }

let rec walk_structure st it (str : structure) =
  List.iter (walk_structure_item st it) str.str_items

and walk_structure_item st it (item : structure_item) =
  match item.str_desc with
  | Tstr_value (_, vbs) -> List.iter (walk_toplevel_vb st it) vbs
  | Tstr_eval (e, attrs) ->
      let pushed = push_attrs st attrs in
      let def =
        make_def st ~name:"<init>" ~loc:e.exp_loc ~hot_def:false ~det:false
          ~domain_safe:false ~is_fun:true ()
      in
      let saved = st.cur_def in
      st.cur_def <- Some def;
      st.spine <- false;
      it.Tast_iterator.expr it e;
      st.cur_def <- saved;
      pop_attrs st pushed
  | Tstr_module mb -> walk_module_binding st it mb
  | Tstr_recmodule mbs -> List.iter (walk_module_binding st it) mbs
  | Tstr_include incl -> walk_module_expr st it incl.incl_mod
  | Tstr_type (_, tds) -> List.iter (collect_tyalias st) tds
  | _ -> ()

and collect_tyalias st (td : type_declaration) =
  match td.typ_manifest with
  | Some { ctyp_desc = Ttyp_constr (p, _, []); _ } ->
      Hashtbl.replace st.prog.p_tyaliases
        (st.w_unit ^ "." ^ qualified_name st td.typ_name.txt)
        (st.w_unit, path_comps p)
  | _ -> ()

and walk_module_binding st it (mb : module_binding) =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  register_alias st name mb.mb_expr;
  let pushed = push_attrs st mb.mb_attributes in
  let r9 = Lint.rule_index Lint.R9 in
  let extra9 = has_attr "domain_safe" mb.mb_attributes in
  if extra9 then st.sup.(r9) <- st.sup.(r9) + 1;
  st.modpath <- name :: st.modpath;
  walk_module_expr st it mb.mb_expr;
  st.modpath <- List.tl st.modpath;
  if extra9 then st.sup.(r9) <- st.sup.(r9) - 1;
  pop_attrs st pushed

and walk_module_expr st it (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> walk_structure st it str
  | Tmod_constraint (inner, _, _, _) -> walk_module_expr st it inner
  | Tmod_functor (_, body) ->
      let was = st.in_functor in
      st.in_functor <- true;
      walk_module_expr st it body;
      st.in_functor <- was
  | Tmod_apply (f, a, _) ->
      walk_module_expr st it f;
      walk_module_expr st it a
  | Tmod_apply_unit f -> walk_module_expr st it f
  | Tmod_ident _ | Tmod_unpack _ -> ()

and walk_toplevel_vb st it (vb : value_binding) =
  let pushed = push_attrs st vb.vb_attributes in
  let domain_safe = has_attr "domain_safe" vb.vb_attributes in
  let r9 = Lint.rule_index Lint.R9 in
  if domain_safe then st.sup.(r9) <- st.sup.(r9) + 1;
  let hot_def = has_attr "hot" vb.vb_attributes in
  let det = has_attr "deterministic" vb.vb_attributes in
  let name, uniq =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, l) -> (Some l.txt, Some (Ident.unique_name id))
    | _ -> (None, None)
  in
  let is_fun = is_function vb.vb_expr in
  let def =
    make_def st ?name ~loc:vb.vb_loc ~hot_def ~det ~domain_safe ~is_fun ()
  in
  (match uniq with
  | Some u -> Hashtbl.replace st.prog.p_def_idents u def.d_name
  | None -> ());
  let saved_def = st.cur_def in
  st.cur_def <- Some def;
  st.ctx <- name :: st.ctx;
  (if not st.in_functor then begin
     (* R6: does the binding's value spine construct mutable state? *)
     (match r6_shape vb.vb_expr with
     | Some shape -> record_occ st ~loc:vb.vb_loc (K_r6 shape)
     | None -> ());
     (* R9 direct: a module-level value closing over locally created
        mutable state *)
     (if not is_fun then
        match escaped_capture vb.vb_expr with
        | Some lex -> record_occ st ~loc:vb.vb_loc (K_r9_direct lex)
        | None -> ());
     def.d_result_apps <-
       (if is_fun then List.concat_map result_apps (spine_bodies vb.vb_expr)
        else result_apps vb.vb_expr);
     if
       is_fun
       && List.exists
            (fun b -> match escaped_capture b with Some _ -> true | None -> false)
            (spine_bodies vb.vb_expr)
     then def.d_factory <- true
   end);
  let was_hot = st.hot_depth in
  if hot_def then st.hot_depth <- st.hot_depth + 1;
  st.spine <- true;
  it.Tast_iterator.expr it vb.vb_expr;
  st.hot_depth <- was_hot;
  st.ctx <- List.tl st.ctx;
  st.cur_def <- saved_def;
  if domain_safe then st.sup.(r9) <- st.sup.(r9) - 1;
  pop_attrs st pushed

let walk_unit prog ~file ~scope (str : structure) =
  let unit_name =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
  in
  let st =
    {
      prog;
      w_file = file;
      w_scope = scope;
      w_unit = unit_name;
      sup = Array.make (List.length Lint.all_rules) 0;
      ctx = [];
      modpath = [];
      cur_def = None;
      hot_depth = 0;
      spine = false;
      in_functor = false;
    }
  in
  let it = make_iterator st in
  walk_structure st it str

(* ---- phase 2: whole-program resolution and rule emission -------------- *)

let rec take k l =
  if k <= 0 then [] else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl

let rec drop k l =
  if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl

(* Demangle wrapper components and drop a leading library-wrapper head
   ([Sss_net.Network.send] -> [Network.send]). *)
let demangle prog comps =
  let comps = List.map demangle_comp comps in
  match comps with
  | w :: (_ :: _ as rest) when List.mem w prog.p_wrappers -> rest
  | _ -> comps

(* Iterative longest-prefix alias rewriting: each round replaces the
   longest module prefix that matches an alias visible from [prefixes].
   Bounded fuel keeps accidental alias cycles from looping. *)
let resolve_comps prog ~prefixes comps =
  let rec loop fuel comps =
    if fuel = 0 then comps
    else
      let n = List.length comps in
      let rec try_j j =
        if j < 1 then None
        else
          let head = String.concat "." (take j comps) in
          let rec try_q = function
            | [] -> None
            | q :: qs -> (
                let key =
                  if String.equal q "" then head else q ^ "." ^ head
                in
                match Hashtbl.find_opt prog.p_aliases key with
                | Some target -> Some (demangle prog target @ drop j comps)
                | None -> try_q qs)
          in
          match try_q prefixes with Some r -> Some r | None -> try_j (j - 1)
      in
      match try_j (n - 1) with
      | Some comps' -> loop (fuel - 1) comps'
      | None -> comps
  in
  let comps = loop 12 (demangle prog comps) in
  match comps with "Stdlib" :: (_ :: _ as rest) -> rest | _ -> comps

let resolved_name prog ~prefixes comps =
  String.concat "." (resolve_comps prog ~prefixes comps)

let find_def prog ~prefixes name =
  let rec go = function
    | [] -> None
    | q :: qs -> (
        let key = if String.equal q "" then name else q ^ "." ^ name in
        match Hashtbl.find_opt prog.p_defs key with
        | Some d -> Some d
        | None -> go qs)
  in
  go prefixes

let find_tyalias prog ~prefixes name =
  let rec go = function
    | [] -> None
    | q :: qs -> (
        let key = if String.equal q "" then name else q ^ "." ^ name in
        match Hashtbl.find_opt prog.p_tyaliases key with
        | Some t -> Some t
        | None -> go qs)
  in
  go prefixes

let predef_scalars = [ "int"; "float"; "bool"; "char"; "unit" ]

(* Chase a named type through abbreviations ([Ids.node = int]) down to a
   predef scalar. *)
let type_is_scalar prog ~prefixes comps =
  let rec chase fuel ~prefixes comps =
    fuel > 0
    &&
    let n = resolved_name prog ~prefixes comps in
    List.mem n predef_scalars
    ||
    (fuel > 0
    &&
    match find_tyalias prog ~prefixes (resolved_name prog ~prefixes comps) with
    | Some (owner, target) ->
        chase (fuel - 1) ~prefixes:[ owner; "" ] target
    | None -> false)
  in
  chase 8 ~prefixes comps

(* Flat float arrays and identity primitives do not box their float
   argument despite the polymorphic formal. *)
let float_exempt =
  [
    "Array.get"; "Array.set"; "Array.unsafe_get"; "Array.unsafe_set";
    "Array.make"; "Array.fill"; "Array.blit"; "Array.unsafe_blit";
    "Array.length"; "ignore"; "Sys.opaque_identity"; "Obj.repr"; "Obj.magic";
    ":=";
    (* comparison primitives specialize to unboxed float compares in native
       code; [min]/[max]/[compare] are real functions and stay flagged *)
    "="; "<>"; "<"; ">"; "<="; ">=";
  ]

(* Identity primitives: "applying" them to a function type re-types the
   argument, it does not build a closure. *)
let partial_exempt = [ "Obj.magic"; "Obj.repr"; "Obj.obj"; "Sys.opaque_identity" ]

type emitter = {
  mutable ef : Lint.finding list;
  counts : (string, int) Hashtbl.t;
  e_rules : Lint.rule list;
  e_owned : string list;
}

let emit em rule ~file ~scope ~line ~col ~context ~lexeme ?(chain = []) message
    =
  let base =
    Printf.sprintf "%s|%s|%s|%s" (Lint.rule_name rule) scope context lexeme
  in
  let n =
    match Hashtbl.find_opt em.counts base with Some n -> n + 1 | None -> 0
  in
  Hashtbl.replace em.counts base n;
  em.ef <-
    {
      Lint.rule;
      file;
      line;
      col;
      context;
      lexeme;
      message;
      chain;
      fingerprint = Printf.sprintf "%s|%d" base n;
    }
    :: em.ef

let occ_enabled em rule (o : occ) =
  List.mem rule em.e_rules
  && Lint.rule_applies rule o.o_scope
  && o.o_sup land (1 lsl Lint.rule_index rule) = 0

let emit_at em rule (o : occ) ~lexeme ?chain message =
  emit em rule ~file:o.o_file ~scope:o.o_scope ~line:o.o_line ~col:o.o_col
    ~context:o.o_context ~lexeme ?chain message

(* R1/R3/R4/R5/R2 on one resolved identifier occurrence; returns the R7
   source classification, if any. *)
let judge_ident em prog (o : occ) ~pclass ~exempt_operand name =
  let head = match String.split_on_char '.' name with h :: _ -> h | [] -> "" in
  (* R1 *)
  let r1_banned =
    String.equal head "Unix" || String.equal head "Random"
    || String.equal name "Sys.time"
  in
  if r1_banned && occ_enabled em Lint.R1 o then
    emit_at em Lint.R1 o ~lexeme:name
      (Printf.sprintf
         "nondeterministic primitive %s is banned in lib/ (use virtual time \
          / Prng; DESIGN.md: determinism)"
         name);
  (* R3 *)
  (match Lint.vclock_owned_op name with
  | Some _ when occ_enabled em Lint.R3 o ->
      let allowed =
        List.exists
          (fun entry ->
            String.equal entry o.o_context
            || String.equal entry (o.o_unit ^ "." ^ o.o_context))
          em.e_owned
      in
      if not allowed then
        emit_at em Lint.R3 o ~lexeme:name
          (Printf.sprintf
             "in-place Vclock operation %s requires [@owned] (exclusively \
              owned, never-published clock; DESIGN.md §8)"
             name)
  | _ -> ());
  (* R4 *)
  let is_hiter =
    String.equal name "Hashtbl.iter" || String.equal name "Hashtbl.fold"
  in
  if is_hiter && occ_enabled em Lint.R4 o then
    emit_at em Lint.R4 o ~lexeme:name
      (Printf.sprintf
         "%s iterates in bucket order; sort the result or annotate \
          [@order_ok] if the result is order-insensitive"
         name);
  (* R5 *)
  if List.mem name Lint.print_funs && occ_enabled em Lint.R5 o then
    emit_at em Lint.R5 o ~lexeme:name
      (Printf.sprintf
         "%s prints directly from library code; emit a typed trace event \
          through an Obs emitter instead (docs/OBSERVABILITY.md), or annotate \
          [@print_ok] for deliberate CLI output"
         name);
  (* R2, on the instantiated type at the use site *)
  (if occ_enabled em Lint.R2 o && not exempt_operand then
     let is_poly =
       List.mem name Lint.poly_named
       || List.mem name Lint.poly_ops
       || String.equal name "Hashtbl.hash"
     in
     if is_poly then
       let scalar =
         match pclass with
         | Pc_scalar -> true
         | Pc_name comps -> type_is_scalar prog ~prefixes:o.o_prefixes comps
         | Pc_var | Pc_other -> false
       in
       if String.equal name "Hashtbl.hash" || not scalar then
         emit_at em Lint.R2 o ~lexeme:name
           (Printf.sprintf
              "polymorphic %s instantiated at a non-scalar type; use a \
               monomorphic comparison (Int.compare, String.equal, \
               Vclock.equal, ...) or annotate [@poly_ok]"
              name));
  (* R7 source classification *)
  let sup r = o.o_sup land (1 lsl Lint.rule_index r) <> 0 in
  if String.equal head "Domain" then Some (name, true)
  else if r1_banned && not (sup Lint.R1) then Some (name, false)
  else if is_hiter && not (sup Lint.R4) then Some (name, false)
  else None

let analyze ?(rules = Lint.all_rules) ?(owned_allow = []) prog =
  let occs = List.rev prog.p_occs in
  let def_order = List.rev !(prog.p_def_order) in
  let em =
    { ef = []; counts = Hashtbl.create 64; e_rules = rules; e_owned = owned_allow }
  in
  let edges_rev : (string, string list ref) Hashtbl.t = Hashtbl.create 256 in
  let add_edge caller callee =
    if not (String.equal caller callee) then
      match Hashtbl.find_opt edges_rev callee with
      | Some l -> if not (List.mem caller !l) then l := caller :: !l
      | None -> Hashtbl.add edges_rev callee (ref [ caller ])
  in
  let sources = ref [] in
  (* pass 1 over occurrences: direct rules, call edges, R7 sources *)
  List.iter
    (fun o ->
      match o.o_kind with
      | K_ident { pclass; exempt_operand; head_ident } -> (
          let target =
            match head_ident with
            | Some u -> (
                match Hashtbl.find_opt prog.p_def_idents u with
                | Some dn -> Hashtbl.find_opt prog.p_defs dn
                | None -> None)
            | None ->
                find_def prog ~prefixes:o.o_prefixes
                  (resolved_name prog ~prefixes:o.o_prefixes o.o_comps)
          in
          (match (o.o_def, target) with
          | Some caller, Some callee -> add_edge caller callee.d_name
          | _ -> ());
          match head_ident with
          | Some _ -> ()  (* a binding of this unit: nothing external to judge *)
          | None -> (
              let name = resolved_name prog ~prefixes:o.o_prefixes o.o_comps in
              match judge_ident em prog o ~pclass ~exempt_operand name with
              | Some (lexeme, is_domain) ->
                  sources := (o, lexeme, is_domain) :: !sources
              | None -> ()))
      | K_hot ha ->
          if occ_enabled em Lint.R8 o then (
            match ha with
            | Ha_closure ->
                emit_at em Lint.R8 o ~lexeme:"fun"
                  "closure allocated in [@hot] code; hoist it to a toplevel \
                   function or annotate [@alloc_ok] on a deliberate cold \
                   branch"
            | Ha_lazy ->
                emit_at em Lint.R8 o ~lexeme:"lazy"
                  "lazy thunk allocated in [@hot] code; force eagerly or \
                   annotate [@alloc_ok]"
            | Ha_tuple ->
                emit_at em Lint.R8 o ~lexeme:"(,)"
                  "tuple allocated in [@hot] code; use a preallocated record \
                   / struct-of-arrays slot or annotate [@alloc_ok]"
            | Ha_partial head when List.mem head partial_exempt -> ()
            | Ha_partial head ->
                emit_at em Lint.R8 o ~lexeme:head
                  (Printf.sprintf
                     "partial application of %s allocates a closure in \
                      [@hot] code; apply fully or annotate [@alloc_ok]"
                     head)
            | Ha_float_app (comps, uniq) -> (
                match uniq with
                | Some u when Hashtbl.mem prog.p_def_idents u ->
                    ()  (* project-local helper: inspected on its own *)
                | _ ->
                    let callee =
                      resolved_name prog ~prefixes:o.o_prefixes comps
                    in
                    if not (List.mem callee float_exempt) then
                      emit_at em Lint.R8 o ~lexeme:callee
                        (Printf.sprintf
                           "float argument to polymorphic %s boxes in [@hot] \
                            code; use a float-specialized path or annotate \
                            [@alloc_ok]"
                           callee))
            | Ha_float_box lex ->
                emit_at em Lint.R8 o ~lexeme:lex
                  (Printf.sprintf
                     "float boxed into %s in [@hot] code; keep hot floats in \
                      float arrays/fields or annotate [@alloc_ok]"
                     lex))
      | K_r6 shape ->
          if occ_enabled em Lint.R6 o then (
            let flag lexeme =
              emit_at em Lint.R6 o ~lexeme
                (Printf.sprintf
                   "module-level binding constructs mutable state (%s), \
                    shared across domains when runs fan out in parallel; \
                    make it per-run state threaded through Config/run setup, \
                    use Atomic.t, or annotate [@@domain_safe] with a \
                    justification"
                   lexeme)
            in
            match shape with
            | R6_definite lexeme -> flag lexeme
            | R6_creator (comps, uniq) -> (
                match uniq with
                | Some u when Hashtbl.mem prog.p_def_idents u -> ()
                | _ ->
                    let n = resolved_name prog ~prefixes:o.o_prefixes comps in
                    if List.mem n Lint.mutable_creators then flag n))
      | K_r9_direct lexeme ->
          if occ_enabled em Lint.R9 o then
            emit_at em Lint.R9 o ~lexeme
              ~chain:
                [ (match o.o_def with Some d -> d | None -> "<toplevel>") ]
              (Printf.sprintf
                 "module-level closure captures locally created mutable \
                  state (%s): every domain shares one instance once runs fan \
                  out in parallel; thread the state per run or annotate \
                  [@@domain_safe]"
                 lexeme))
    occs;
  (* R7: shortest entry-scope chain to each source, through the reverse
     call graph; [@deterministic] defs are barriers. *)
  let chain_to src =
    let parent : (string, string option) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.replace parent src None;
    let q = Queue.create () in
    Queue.add src q;
    let result = ref [] in
    (try
       while not (Queue.is_empty q) do
         let cur = Queue.pop q in
         let callers =
           match Hashtbl.find_opt edges_rev cur with
           | Some l -> List.sort String.compare !l
           | None -> []
         in
         List.iter
           (fun caller ->
             if not (Hashtbl.mem parent caller) then
               match Hashtbl.find_opt prog.p_defs caller with
               | Some d when d.d_det -> ()
               | Some d ->
                   Hashtbl.replace parent caller (Some cur);
                   if d.d_entry then begin
                     let rec collect n =
                       n
                       ::
                       (match Hashtbl.find_opt parent n with
                       | Some (Some child) -> collect child
                       | _ -> [])
                     in
                     result := collect caller;
                     raise Exit
                   end;
                   Queue.add caller q
               | None -> ())
           callers
       done
     with Exit -> ());
    !result
  in
  List.iter
    (fun ((o : occ), lexeme, is_domain) ->
      if occ_enabled em Lint.R7 o then
        if is_domain then
          emit_at em Lint.R7 o ~lexeme
            ~chain:(match o.o_def with Some d -> [ d ] | None -> [])
            (Printf.sprintf
               "%s used outside lib/par: domain fan-out belongs to the \
                sanctioned Sss_par pool (parallelism anywhere else breaks \
                run determinism)"
               lexeme)
        else
          match o.o_def with
          | None -> ()
          | Some d when
              (match Hashtbl.find_opt prog.p_defs d with
              | Some def -> def.d_det
              | None -> false) ->
              ()  (* the audited boundary contains the source itself *)
          | Some d -> (
              match chain_to d with
              | [] -> ()
              | chain ->
                  emit_at em Lint.R7 o ~lexeme ~chain
                    (Printf.sprintf
                       "nondeterminism source %s is reachable from \
                        protocol/engine entry point %s (chain: %s); make the \
                        path deterministic or mark the audited boundary \
                        [@deterministic]"
                       lexeme (List.hd chain)
                       (String.concat " -> " chain))))
    (List.rev !sources);
  (* R9 factories: propagate "returns a closure over fresh mutable state"
     through result-position applications, then flag module-level values
     built by calling one. *)
  let resolve_app (d : def) (comps, uniq) =
    match uniq with
    | Some u -> (
        match Hashtbl.find_opt prog.p_def_idents u with
        | Some dn -> Hashtbl.find_opt prog.p_defs dn
        | None -> None)
    | None ->
        find_def prog ~prefixes:d.d_prefixes
          (resolved_name prog ~prefixes:d.d_prefixes comps)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun dn ->
        let d = Hashtbl.find prog.p_defs dn in
        if (not d.d_factory) && not d.d_toplevel_value then
          if
            List.exists
              (fun app ->
                match resolve_app d app with
                | Some f -> f.d_factory
                | None -> false)
              d.d_result_apps
          then begin
            d.d_factory <- true;
            changed := true
          end)
      def_order
  done;
  List.iter
    (fun dn ->
      let d = Hashtbl.find prog.p_defs dn in
      if
        d.d_toplevel_value && (not d.d_sup9)
        && List.mem Lint.R9 rules
        && Lint.rule_applies Lint.R9 d.d_scope
      then
        match
          List.find_map
            (fun app ->
              match resolve_app d app with
              | Some f when f.d_factory -> Some f
              | _ -> None)
            d.d_result_apps
        with
        | Some f ->
            emit em Lint.R9 ~file:d.d_file ~scope:d.d_scope ~line:d.d_line
              ~col:d.d_col ~context:d.d_context ~lexeme:f.d_name
              ~chain:[ d.d_name; f.d_name ]
              (Printf.sprintf
                 "module-level value calls %s, which returns a closure over \
                  fresh mutable state: the instance is shared across domains \
                  once runs fan out in parallel; create it per run or \
                  annotate [@@domain_safe]"
                 f.d_name)
        | None -> ())
    def_order;
  List.stable_sort
    (fun (a : Lint.finding) (b : Lint.finding) ->
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = Int.compare a.line b.line in
        if c <> 0 then c else Int.compare a.col b.col)
    (List.rev em.ef)

(* ---- entry points ----------------------------------------------------- *)

let engine_version = "2.0"

let unit_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* .cmt mode: the real linter.  [paths] are .cmt files produced by dune's
   [-bin-annot]; each carries its repo-relative source path, which provides
   both the display name and the rule scope. *)
let check_cmts ?rules ?owned_allow cmt_paths =
  let prog = new_program () in
  let units =
    List.filter_map
      (fun path ->
        let cmt =
          try Cmt_format.read_cmt path
          with exn ->
            raise
              (Lint.Parse_error
                 (Printf.sprintf "%s: cannot read cmt (%s)" path
                    (Printexc.to_string exn)))
        in
        match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
        | Cmt_format.Implementation str, Some src
          when Filename.check_suffix src ".ml" ->
            Some (src, cmt.Cmt_format.cmt_modname, str)
        | _ -> None)
      cmt_paths
  in
  (* wrapper modules: the prefix before the last "__" of any mangled unit
     name ("Sss_sim__Equeue" -> "Sss_sim") *)
  let wrappers =
    List.fold_left
      (fun acc (_, modname, _) ->
        let n = String.length modname in
        let rec last_sep i best =
          if i + 1 >= n then best
          else if modname.[i] = '_' && modname.[i + 1] = '_' then
            last_sep (i + 1) (Some i)
          else last_sep (i + 1) best
        in
        match last_sep 0 None with
        | Some j ->
            let w = String.sub modname 0 j in
            let acc = if List.mem w acc then acc else w :: acc in
            let wd = demangle_comp w in
            if List.mem wd acc then acc else wd :: acc
        | None -> acc)
      [] units
  in
  prog.p_wrappers <- wrappers;
  let units =
    List.sort_uniq
      (fun (a, _, _) (b, _, _) -> String.compare a b)
      units
  in
  List.iter (fun (src, _, str) -> walk_unit prog ~file:src ~scope:src str) units;
  analyze ?rules ?owned_allow prog

(* Source mode, for fixture tests: typecheck .ml files in-process (fixtures
   are self-contained modulo stdlib + unix) and run the same analysis.
   [scope_as] plays the same role as in {!Lint.check_file}. *)
let typecheck_init = ref false

let typecheck_source path =
  if not !typecheck_init then begin
    Clflags.include_dirs :=
      [ Filename.concat Config.standard_library "unix" ];
    Compmisc.init_path ();
    (* fixtures deliberately contain lint-bait: keep the compiler quiet *)
    ignore (Warnings.parse_options false "-a");
    typecheck_init := true
  end;
  Env.set_unit_name (unit_of_file path);
  let env = Compmisc.initial_env () in
  let ast = Lint.parse_file path in
  try
    let tstr, _, _, _, _ = Typemod.type_structure env ast in
    tstr
  with exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
      | _ -> Printexc.to_string exn
    in
    raise (Lint.Parse_error (Printf.sprintf "%s: %s" path msg))

let check_sources ?rules ?owned_allow files =
  let prog = new_program () in
  List.iter
    (fun (path, scope) ->
      walk_unit prog ~file:path ~scope (typecheck_source path))
    files;
  analyze ?rules ?owned_allow prog

let check_source ?rules ?owned_allow ?scope_as path =
  let scope = match scope_as with Some s -> s | None -> path in
  check_sources ?rules ?owned_allow [ (path, scope) ]
