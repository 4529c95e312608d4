"""Footprint extraction: locating every actual use of an API in client code.

The extractor walks resolved client ASTs and records the location of every
interaction with a symbol of the governing usage model under its (symbol,
use) pair. Anything that cannot be resolved, or that is syntactically
present but not legal under the model (e.g. extending a final class),
becomes a diagnostic rather than a use.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from . import nodes as n
from .errors import ParseError
from .model import Symbol, SymbolKind, UsageModel, UseKind, UsePair
from .parser import collect_source_files, read_unit
from .symtab import (
    Declaration,
    MemberInfo,
    ResolutionStatus,
    SymbolTable,
    TypeInfo,
    build_symbol_table,
    declarations,
    erased_signature,
)
from .typing_env import Env, Link, Unknown, bare_name, declared_type, link_of, static_type_of
from .uses import (  # noqa: F401 - the values and their JSON form, re-exported
    Diagnostic,
    DiagnosticKind,
    Footprint,
    UseTriple,
    diff,
    footprint_from_dict,
    footprint_to_dict,
    merge,
)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_uses(
    client_units: list[n.SourceUnit],
    model: UsageModel,
    label: str = "client",
    *,
    _parse_errors: Sequence[Diagnostic] = (),
) -> Footprint:
    """Extract the footprint of client units against a usage model, over a
    client symbol table that holds the library's types and the client's.
    ``footprint_of_corpus`` passes the diagnostics of the files it could
    not parse, which come before the extractor's own."""
    table = build_symbol_table(client_units, base=model.table)
    extractor = _Extractor(model, table, list(_parse_errors))
    for d in declarations(client_units, table):
        extractor.visit_type(d)
    return Footprint(
        label=label,
        library=model.library_name,
        diagnostics=extractor.diagnostics,
        sites=extractor.sites,
    )


def footprint_of_corpus(
    groups: dict[str, list[Union[str, Path]]],
    model: UsageModel,
    lenient: bool = True,
) -> dict[str, Footprint]:
    """One footprint per labeled group of source roots.

    In lenient mode files that fail to parse are skipped with a diagnostic;
    in strict mode the ParseError propagates.
    """
    if not groups:
        raise ValueError("at least one labeled group is required")
    out: dict[str, Footprint] = {}
    for label, roots in groups.items():
        units: list[n.SourceUnit] = []
        diagnostics: list[Diagnostic] = []
        for path in collect_source_files(roots):
            try:
                units.append(read_unit(path))
            except ParseError as exc:
                if not lenient:
                    raise
                diagnostics.append(
                    Diagnostic(
                        n.Location(exc.file, exc.line, exc.column),
                        DiagnosticKind.PARSE_ERROR,
                        exc.reason,
                    )
                )
        out[label] = extract_uses(units, model, label=label, _parse_errors=diagnostics)
    return out


class _Extractor:
    def __init__(self, model: UsageModel, table: SymbolTable, diagnostics: list[Diagnostic]):
        self.model = model
        self.table = table
        self.lib_table = model.table
        self.sites: dict[UsePair, set[n.Location]] = {}
        self.diagnostics = diagnostics
        # The checked invocation closure of each non-static method called.
        self._invocations: dict[MemberInfo, tuple[Union[Symbol, str], ...]] = {}

    # -- bookkeeping -------------------------------------------------------

    def diag(self, loc: n.Location, kind: DiagnosticKind, message: str) -> None:
        self.diagnostics.append(Diagnostic(loc, kind, message))

    def is_library_type(self, fqn: str) -> bool:
        return self.lib_table.lookup_type(fqn) is not None

    def emit(self, symbol: Symbol, use: UseKind, loc: n.Location) -> None:
        self._record(self._checked(symbol, use), use, loc)

    def emit_member_use(self, member: MemberInfo, use: UseKind, loc: n.Location) -> None:
        self._record(self._checked_member(member, use), use, loc)

    def _checked(self, symbol: Symbol, use: UseKind) -> Union[Symbol, str]:
        """``symbol`` if ``use`` of it is legal, else the IllegalUse message."""
        if use in self.model.entries[symbol]:
            return symbol
        return f"{use.value} is not a legal use of {symbol}"

    def _checked_member(self, member: MemberInfo, use: UseKind) -> Union[Symbol, str, None]:
        """``_checked`` of the member's model symbol. A member the model does
        not export gives the IllegalUse message where the library declares
        it, and None (no use) where it does not."""
        sym = self.model.symbol_for(member.fqn, member.signature)
        if sym is not None:
            return self._checked(sym, use)
        if self.is_library_type(member.declaring):
            return f"{use.value} of non-exported symbol {member.fqn}"
        return None

    def _record(self, checked: Union[Symbol, str, None], use: UseKind, loc: n.Location) -> None:
        """Add what ``_checked`` or ``_checked_member`` gave at ``loc``."""
        if type(checked) is str:
            self.diag(loc, DiagnosticKind.ILLEGAL_USE, checked)
        elif checked is not None:
            locations = self.sites.get((checked, use))
            if locations is None:
                self.sites[checked, use] = {loc}
            else:
                locations.add(loc)

    # -- declarations --------------------------------------------------------

    def visit_type(self, d: Declaration) -> None:
        env = Env(d.scope)
        info = self.table.types[d.fqn]
        self._heritage_uses(d.decl, info, env)
        self._overriding_uses(info)
        self._implicit_super_constructors(info)
        for member in d.decl.members:
            self._visit_member(member, env)

    def _heritage_uses(self, decl: n.TypeDecl, info: TypeInfo, env: Env) -> None:
        refs = decl.extends_refs + decl.implements_refs
        for ref, resolved in zip(refs, info.supertypes):
            for arg in ref.type_args:
                self._type_reference(arg, env)
            if resolved in info.external_supertypes:
                continue
            target = self.model.type_symbol(resolved)
            if target is None:
                if self.is_library_type(resolved):
                    self.diag(
                        ref.location,
                        DiagnosticKind.ILLEGAL_USE,
                        f"extension of non-exported type {resolved}",
                    )
                continue
            target_info = self.table.lookup_type(resolved)
            if target_info is not None and target_info.kind is SymbolKind.INTERFACE:
                if decl.kind is SymbolKind.INTERFACE:
                    self.emit(target, UseKind.INTERFACE_EXTENSION, ref.location)
                else:
                    self.emit(target, UseKind.IMPLEMENTATION, ref.location)
            else:
                self.emit(target, UseKind.INHERITANCE, ref.location)

    def _overriding_uses(self, info: TypeInfo) -> None:
        for member in info.members:
            if member.kind is not SymbolKind.METHOD or "static" in member.modifiers:
                continue
            self._emit_library_methods(
                self.table.super_methods(member), UseKind.OVERRIDING, member.location
            )

    def _emit_library_methods(
        self, methods: tuple[MemberInfo, ...], use: UseKind, loc: n.Location
    ) -> None:
        """Emit ``use`` of each instance method declared in the library."""
        for m in methods:
            if "static" not in m.modifiers:
                self.emit_member_use(m, use, loc)

    def _implicit_super_constructors(self, info: TypeInfo) -> None:
        # An explicitly declared constructor of a client subclass implicitly
        # invokes the API superclass's zero-arg constructor.
        superclass = None
        for sup in info.supertypes:
            sup_info = self.table.lookup_type(sup)
            if sup_info is not None and sup_info.kind is SymbolKind.CLASS:
                superclass = sup_info
                break
        if superclass is None or not self.is_library_type(superclass.fqn):
            return
        zero_arg = self.table.resolve_constructor(superclass.fqn, []).member
        if zero_arg is None:
            return
        for member in info.members:
            if member.kind is SymbolKind.CONSTRUCTOR and not member.synthesized:
                self.emit_member_use(zero_arg, UseKind.CONSTRUCTOR_INVOCATION, member.location)

    def _type_reference(self, ref: n.TypeRef, env: Env) -> Optional[str]:
        """The type ``ref`` declares, by typing's ``declared_type``. It and
        the type arguments are TypeReferences where they are model types,
        arrays included, and ``ref`` does not name a type parameter."""
        declared = declared_type(ref, env)
        if declared is not None and ref.name not in env.scope.type_params:
            sym = self.model.type_symbol(declared.rstrip("[]"))
            if sym is not None:
                self.emit(sym, UseKind.TYPE_REFERENCE, ref.location)
        for arg in ref.type_args:
            self._type_reference(arg, env)
        return declared

    def _visit_member(self, member: n.MemberDecl, type_env: Env) -> None:
        """Emit the type references of a member's declaration, then visit
        its field initializer or body with the types they declare."""
        env = type_env.child()
        if member.kind is SymbolKind.FIELD:
            field_type = self._type_reference(member.field_type, env)
            if member.field_init is not None:
                self.visit_expr(member.field_init, env, expected=field_type)
            return
        if member.return_type is not None:
            env.returns = self._type_reference(member.return_type, env)
        for p in member.params:
            env.declare(p.name, self._type_reference(p.type_ref, env))
        for ref in member.throws_refs:
            self._type_reference(ref, env)
        if member.body is not None:
            self.visit_block(member.body, env)

    # -- statements ------------------------------------------------------------

    def visit_block(self, block: n.Block, env: Env) -> None:
        inner = env.child()
        for stmt in block.statements:
            self.visit_stmt(stmt, inner)

    def visit_stmt(self, stmt: n.Stmt, env: Env) -> None:
        if isinstance(stmt, n.Block):
            self.visit_block(stmt, env)
        elif isinstance(stmt, n.LocalDecl):
            declared = self._type_reference(stmt.type_ref, env)
            env.declare(stmt.name, declared)
            if stmt.init is not None:
                self.visit_expr(stmt.init, env, expected=declared)
        elif isinstance(stmt, n.ExprStmt):
            self.visit_expr(stmt.expr, env)
        elif isinstance(stmt, n.If):
            self.visit_expr(stmt.cond, env)
            self.visit_stmt(stmt.then, env.child())
            if stmt.orelse is not None:
                self.visit_stmt(stmt.orelse, env.child())
        elif isinstance(stmt, n.While):
            self.visit_expr(stmt.cond, env)
            self.visit_stmt(stmt.body, env.child())
        elif isinstance(stmt, n.For):
            inner = env.child()
            if stmt.init is not None:
                self.visit_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self.visit_expr(stmt.cond, inner)
            if stmt.update is not None:
                self.visit_expr(stmt.update, inner)
            self.visit_stmt(stmt.body, inner.child())
        elif isinstance(stmt, n.Return):
            if stmt.expr is not None:
                self.visit_expr(stmt.expr, env, expected=env.returns)
        elif isinstance(stmt, n.Throw):
            self.visit_expr(stmt.expr, env)
        elif isinstance(stmt, n.Try):
            self.visit_block(stmt.body, env)
            for catch in stmt.catches:
                inner = env.child()
                inner.declare(catch.name, self._type_reference(catch.param_type, env))
                self.visit_block(catch.body, inner)
            if stmt.finally_block is not None:
                self.visit_block(stmt.finally_block, env)

    # -- expressions --------------------------------------------------------------

    def visit_expr(
        self,
        expr: n.Expr,
        env: Env,
        expected: Optional[str] = None,
        assign_target: bool = False,
    ) -> None:
        # A left-deep receiver chain is walked iteratively: descend to the
        # innermost receiver that is visited, then handle each link on the
        # way out, so a chain of any length uses constant stack.
        links: list[tuple[n.Expr, Link, bool]] = []
        while isinstance(expr, (n.MethodCall, n.FieldAccess)):
            record = link_of(expr, env)
            links.append((expr, record, assign_target))
            if not record.receiver_is_expr:
                break
            expr, assign_target = expr.receiver, False
        else:
            self._visit_operand(expr, env, expected, assign_target)
        for link, record, target in reversed(links):
            if isinstance(link, n.MethodCall):
                self._method_call(link, record, env)
            else:
                self._field_access_use(link, record, target)

    def _visit_operand(
        self, expr: n.Expr, env: Env, expected: Optional[str], assign_target: bool
    ) -> None:
        """Visit an expression that is not a receiver chain link."""
        if isinstance(expr, n.Name):
            self._name_field_use(expr, env, assign_target)
        elif isinstance(expr, n.New):
            self._new_expr(expr, env)
        elif isinstance(expr, n.Assign):
            self.visit_expr(expr.target, env, assign_target=True)
            target_type = static_type_of(expr.target, env)
            self.visit_expr(expr.value, env, expected=target_type)
        elif isinstance(expr, n.Binary):
            # Left-deep operator chains are walked iteratively too.
            rights = []
            while isinstance(expr, n.Binary):
                rights.append(expr.right)
                expr = expr.left
            self.visit_expr(expr, env)
            for right in reversed(rights):
                self.visit_expr(right, env)
        elif isinstance(expr, n.Unary):
            while isinstance(expr, n.Unary):
                expr = expr.operand
            self.visit_expr(expr, env)
        elif isinstance(expr, n.Cast):
            self._type_reference(expr.type_ref, env)
            self.visit_expr(expr.expr, env)
        elif isinstance(expr, n.Lambda):
            self._lambda(expr, env, expected)

    def _name_field_use(self, expr: n.Name, env: Env, assign_target: bool) -> None:
        _, member = bare_name(expr, env)
        if member is not None:
            use = UseKind.FIELD_WRITE if assign_target else UseKind.FIELD_READ
            self.emit_member_use(member, use, expr.location)

    def _field_access_use(self, expr: n.FieldAccess, link: Link, assign_target: bool) -> None:
        receiver_type = link.receiver_type
        if receiver_type is None:
            return
        if link.member is None:
            if self.is_library_type(receiver_type):
                self.diag(
                    expr.location,
                    DiagnosticKind.UNRESOLVED,
                    f"no field {expr.name} on {receiver_type}",
                )
            return
        use = UseKind.FIELD_WRITE if assign_target else UseKind.FIELD_READ
        self.emit_member_use(link.member, use, expr.location)

    def _method_call(self, call: n.MethodCall, link: Link, env: Env) -> None:
        receiver_type, member = link.receiver_type, link.member
        if receiver_type is None:
            self.diag(
                call.location,
                DiagnosticKind.UNRESOLVED,
                f"cannot resolve receiver of {call.name}(...)",
            )
            self._visit_args(call.args, env, None)
            return
        if member is None:
            if self._worth_diagnosing(receiver_type):
                self.diag(
                    call.location,
                    DiagnosticKind.UNRESOLVED,
                    f"cannot resolve method {call.name} on {receiver_type}",
                )
            self._visit_args(call.args, env, None)
            return
        if link.status is ResolutionStatus.AMBIGUOUS:
            self.diag(
                call.location,
                DiagnosticKind.AMBIGUOUS,
                f"ambiguous call to {call.name} on {receiver_type}; "
                f"chose {member.signature}",
            )
        if "static" in member.modifiers:
            self.emit_member_use(member, UseKind.STATIC_INVOCATION, call.location)
        else:
            closure = self._invocations.get(member)
            if closure is None:
                closure = self._invocations[member] = self._invocation_closure(member)
            for checked in closure:
                self._record(checked, UseKind.METHOD_INVOCATION, call.location)
        self._visit_args(call.args, env, member)

    def _invocation_closure(self, member: MemberInfo) -> tuple[Union[Symbol, str], ...]:
        """The checked MethodInvocation (legal symbols and IllegalUse
        messages) of a call to the non-static ``member``: of the member and,
        by the virtual-invocation closure, of every instance super-method
        sharing its erased signature, which the same call site covers."""
        methods = (member, *self.table.super_methods(member))
        checked = (self._checked_member(m, UseKind.METHOD_INVOCATION)
                   for m in methods if "static" not in m.modifiers)
        return tuple(c for c in checked if c is not None)

    def _worth_diagnosing(self, receiver_type: str) -> bool:
        # Calls on primitives or unknown externals are not diagnosable resolution
        # failures worth reporting individually; everything else is.
        return self.table.lookup_type(receiver_type) is not None

    def _visit_args(
        self, args: list[n.Expr], env: Env, member: Optional[MemberInfo]
    ) -> None:
        for i, arg in enumerate(args):
            expected = None
            if member is not None and i < len(member.param_types):
                expected = member.param_types[i]
            self.visit_expr(arg, env, expected=expected)

    def _new_expr(self, expr: n.New, env: Env) -> None:
        for arg_ref in expr.type_ref.type_args:
            self._type_reference(arg_ref, env)
        resolved, known = env.scope.resolve_type(expr.type_ref.name)
        if not known:
            self.diag(
                expr.location,
                DiagnosticKind.UNRESOLVED,
                f"cannot resolve type {expr.type_ref.name} in new expression",
            )
            self._visit_args(expr.args, env, None)
            return
        info = self.table.lookup_type(resolved)
        sym = self.model.type_symbol(resolved)
        arg_types = [static_type_of(a, env) for a in expr.args]
        ctor = self.table.resolve_constructor(resolved, arg_types)
        if expr.anon_body is not None:
            self._anonymous_class(expr, resolved, info, sym, ctor, env)
            return
        if sym is not None:
            self.emit(sym, UseKind.INSTANTIATION, expr.location)
            if ctor.member is not None:
                self.emit_member_use(
                    ctor.member, UseKind.CONSTRUCTOR_INVOCATION, expr.location
                )
            elif info is not None and info.kind is SymbolKind.CLASS:
                self.diag(
                    expr.location,
                    DiagnosticKind.UNRESOLVED,
                    f"no matching constructor for {resolved}",
                )
        self._visit_args(expr.args, env, ctor.member)

    def _anonymous_class(self, expr, resolved, info, sym, ctor, env: Env) -> None:
        is_interface = info is not None and info.kind is SymbolKind.INTERFACE
        if sym is not None:
            if is_interface:
                self.emit(sym, UseKind.IMPLEMENTATION, expr.location)
            else:
                self.emit(sym, UseKind.INHERITANCE, expr.location)
                if ctor.member is not None:
                    self.emit_member_use(
                        ctor.member, UseKind.CONSTRUCTOR_INVOCATION, expr.location
                    )
        self._visit_args(expr.args, env, ctor.member)
        inner = Env(env.scope._replace(this_type=resolved))
        for member in expr.anon_body or []:
            if member.kind is SymbolKind.METHOD:
                signature = erased_signature(
                    member.name, (inner.scope.erase(p.type_ref) for p in member.params)
                )
                self._emit_library_methods(
                    self.table.overridden_methods(resolved, signature),
                    UseKind.OVERRIDING,
                    member.location,
                )
            self._visit_member(member, inner)

    def _lambda(self, expr: n.Lambda, env: Env, expected: Optional[str]) -> None:
        sam: Optional[MemberInfo] = None
        if expected is not None:
            info = self.table.lookup_type(expected)
            sym = self.model.type_symbol(expected)
            if (
                info is not None
                and info.kind is SymbolKind.INTERFACE
                and sym is not None
            ):
                abstract = [
                    m
                    for m in info.members
                    if m.kind is SymbolKind.METHOD and "abstract" in m.modifiers
                ]
                if len(abstract) == 1:
                    sam = abstract[0]
                    self.emit(sym, UseKind.IMPLEMENTATION, expr.location)
                    self.emit_member_use(sam, UseKind.OVERRIDING, expr.location)
        inner = env.child()
        inner.returns = sam.return_type if sam is not None else Unknown
        for i, p in enumerate(expr.params):
            if p.type_ref.name:
                inner.declare(p.name, self._type_reference(p.type_ref, env))
            elif sam is not None and i < len(sam.param_types):
                inner.declare(p.name, sam.param_types[i])
            else:
                inner.declare(p.name, Unknown)
        if isinstance(expr.body, n.Block):
            self.visit_block(expr.body, inner)
        else:
            self.visit_expr(expr.body, inner, expected=inner.returns)
