"""Footprint extraction: locating every actual use of an API in client code.

The extractor walks resolved client ASTs and records the location of every
interaction with a symbol of the governing usage model under its (symbol,
use) pair. Anything that cannot be resolved, or that is syntactically
present but not legal under the model (e.g. extending a final class),
becomes a diagnostic rather than a use.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

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
    erase,
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
    new_value,
)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

# The uses of a field that an expression reads, assigns, or increments or
# decrements: ``x++``, ``++x``, ``x--`` and ``--x`` read the variable and
# write it back (JLS 15.14.2, 15.15.1).
_READ = (UseKind.FIELD_READ,)
_WRITE = (UseKind.FIELD_WRITE,)
_READ_WRITE = (UseKind.FIELD_READ, UseKind.FIELD_WRITE)
_INCREMENTS = frozenset({"++", "--", "post++", "post--"})


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


_UNCHECKED = object()  # a (member, use) that ``_checked_member`` has not met yet


class _Invocations(NamedTuple):
    """The MethodInvocation uses that every call to one non-static method
    makes: the site sets of its closure's legal pairs, and its IllegalUse
    messages."""

    sites: tuple[set[n.Location], ...]
    messages: tuple[str, ...]


def _extension(supertype: Optional[TypeInfo], kind: SymbolKind) -> UseKind:
    """The use a type of ``kind`` makes of a supertype it extends or
    implements."""
    if supertype is None or supertype.kind is not SymbolKind.INTERFACE:
        return UseKind.INHERITANCE
    if kind is SymbolKind.INTERFACE:
        return UseKind.INTERFACE_EXTENSION
    return UseKind.IMPLEMENTATION


class _Extractor:
    def __init__(self, model: UsageModel, table: SymbolTable, diagnostics: list[Diagnostic]):
        self.model = model
        self.table = table
        self.lib_table = model.table
        self.sites: dict[UsePair, set[n.Location]] = {}
        self.diagnostics = diagnostics
        # Answers that hold for the whole extraction, each found once: the
        # invocations of each non-static method called, the checked symbol
        # of each (member, use), and each interface's single abstract method.
        self._invocations: dict[MemberInfo, _Invocations] = {}
        self._checked_members: dict[tuple[MemberInfo, UseKind], Union[Symbol, str, None]] = {}
        self._sams: dict[str, Optional[MemberInfo]] = {}

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
        key = (member, use)
        checked = self._checked_members.get(key, _UNCHECKED)
        if checked is _UNCHECKED:
            sym = self.model.symbols.get(
                new_value(Symbol, (member.fqn, member.kind, member.signature)))
            if sym is not None:
                checked = self._checked(sym, use)
            elif self.is_library_type(member.declaring):
                checked = f"{use.value} of non-exported symbol {member.fqn}"
            else:
                checked = None
            self._checked_members[key] = checked
        return checked

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
        for member in info.members:
            if member.kind is SymbolKind.METHOD and "static" not in member.modifiers:
                self._overriding_uses(self.table.super_methods(member), member.location)
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
            use = _extension(self.table.lookup_type(resolved), decl.kind)
            self.emit(target, use, ref.location)

    def _overriding_uses(self, methods: tuple[MemberInfo, ...], loc: n.Location) -> None:
        """Emit Overriding of each instance method among ``methods``."""
        for m in methods:
            if "static" not in m.modifiers:
                self.emit_member_use(m, UseKind.OVERRIDING, loc)

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
        its field initializer or body with the types they declare: the
        initializer and each ``return`` of the body expect the member's type."""
        env = type_env.child()
        if member.type_ref is not None:
            env.returns = self._type_reference(member.type_ref, env)
        for p in member.params:
            env.declare(p.name, self._type_reference(p.type_ref, env))
        for ref in member.throws_refs:
            self._type_reference(ref, env)
        if member.field_init is not None:
            self.visit_expr(member.field_init, env, expected=env.returns)
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
        field_uses: tuple[UseKind, ...] = _READ,
    ) -> None:
        """Visit ``expr``; a field it denotes has ``field_uses``.

        A left-deep receiver chain is walked iteratively: descend to the
        innermost receiver that is visited, then handle each link on the
        way out, so a chain of any length uses constant stack."""
        links: list[tuple[n.Expr, Link, tuple[UseKind, ...]]] = []
        while isinstance(expr, (n.MethodCall, n.FieldAccess)):
            record = link_of(expr, env)
            links.append((expr, record, field_uses))
            if not record.receiver_is_expr:
                break
            expr, field_uses = expr.receiver, _READ
        else:
            self._visit_operand(expr, env, expected, field_uses)
        for link, record, uses in reversed(links):
            if isinstance(link, n.MethodCall):
                self._method_call(link, record, env)
            else:
                self._field_access_use(link, record, uses)

    def _visit_operand(
        self, expr: n.Expr, env: Env, expected: Optional[str], field_uses: tuple[UseKind, ...]
    ) -> None:
        """Visit an expression that is not a receiver chain link."""
        if isinstance(expr, n.Name):
            self._name_field_use(expr, env, field_uses)
        elif isinstance(expr, n.New):
            self._new_expr(expr, env)
        elif isinstance(expr, n.Assign):
            self.visit_expr(expr.target, env, field_uses=_WRITE)
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
            # The operator applied to the operand itself decides its uses.
            while isinstance(expr.operand, n.Unary):
                expr = expr.operand
            uses = _READ_WRITE if expr.op in _INCREMENTS else _READ
            self.visit_expr(expr.operand, env, field_uses=uses)
        elif isinstance(expr, n.Cast):
            self._type_reference(expr.type_ref, env)
            self.visit_expr(expr.expr, env)
        elif isinstance(expr, n.Lambda):
            self._lambda(expr, env, expected)

    def _name_field_use(self, expr: n.Name, env: Env, uses: tuple[UseKind, ...]) -> None:
        _, member = bare_name(expr, env)
        if member is not None:
            for use in uses:
                self.emit_member_use(member, use, expr.location)

    def _field_access_use(
        self, expr: n.FieldAccess, link: Link, uses: tuple[UseKind, ...]
    ) -> None:
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
        for use in uses:
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
            # Calls on primitives or unknown externals are not diagnosable resolution
            # failures worth reporting individually; everything else is.
            if self.table.lookup_type(receiver_type) is not None:
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
            calls = self._invocations.get(member)
            if calls is None:
                calls = self._invocations[member] = self._invocation_closure(member)
            for locations in calls.sites:
                locations.add(call.location)
            for message in calls.messages:
                self.diag(call.location, DiagnosticKind.ILLEGAL_USE, message)
        self._visit_args(call.args, env, member)

    def _invocation_closure(self, member: MemberInfo) -> _Invocations:
        """The checked MethodInvocation of a call to the non-static
        ``member``: of the member and, by the virtual-invocation closure, of
        every instance super-method sharing its erased signature, which the
        same call site covers. Its legal pairs enter ``sites`` now, in
        closure order, so the pairs keep the order they were first seen in,
        and each call adds its location to their site sets."""
        sites: list[set[n.Location]] = []
        messages: list[str] = []
        for m in (member, *self.table.super_methods(member)):
            if "static" in m.modifiers:
                continue
            checked = self._checked_member(m, UseKind.METHOD_INVOCATION)
            if type(checked) is str:
                messages.append(checked)
            elif checked is not None:
                sites.append(self.sites.setdefault((checked, UseKind.METHOD_INVOCATION), set()))
        return _Invocations(tuple(sites), tuple(messages))

    def _visit_args(
        self, args: list[n.Expr], env: Env, member: Optional[MemberInfo]
    ) -> None:
        for i, arg in enumerate(args):
            expected = None
            if member is not None and i < len(member.param_types):
                expected = member.param_types[i]
            self.visit_expr(arg, env, expected=expected)

    def _new_expr(self, expr: n.New, env: Env) -> None:
        """Instantiation, or with a body Implementation or Inheritance, and
        but for Implementation the constructor's invocation. The body of an
        unknown type is visited too, with the raw name as ``this_type``."""
        body = expr.anon_body
        loc = expr.type_ref.location  # a new expression's uses are at its type
        for arg_ref in expr.type_ref.type_args:
            self._type_reference(arg_ref, env)
        resolved, known = env.resolve_type(expr.type_ref.name)
        ctor = None
        if not known:
            self.diag(
                loc,
                DiagnosticKind.UNRESOLVED,
                f"cannot resolve type {expr.type_ref.name} in new expression",
            )
        else:
            info = self.table.lookup_type(resolved)
            sym = self.model.type_symbol(resolved)
            arg_types = [static_type_of(a, env) for a in expr.args]
            ctor = self.table.resolve_constructor(resolved, arg_types).member
            if sym is not None:
                use = UseKind.INSTANTIATION if body is None else _extension(info, SymbolKind.CLASS)
                self.emit(sym, use, loc)
                if ctor is not None:
                    if use is not UseKind.IMPLEMENTATION:
                        self.emit_member_use(ctor, UseKind.CONSTRUCTOR_INVOCATION, loc)
                elif use is UseKind.INSTANTIATION and info.kind is SymbolKind.CLASS:
                    self.diag(
                        loc,
                        DiagnosticKind.UNRESOLVED,
                        f"no matching constructor for {resolved}",
                    )
        self._visit_args(expr.args, env, ctor)
        if body is None:
            return
        inner = Env(env.scope._replace(this_type=resolved))
        for member in body:
            if member.kind is SymbolKind.METHOD:
                signature = erased_signature(
                    member.name, (erase(p.type_ref, inner.resolve_type) for p in member.params)
                )
                self._overriding_uses(
                    self.table.overridden_methods(resolved, signature), member.location
                )
            self._visit_member(member, inner)

    def _lambda(self, expr: n.Lambda, env: Env, expected: Optional[str]) -> None:
        sam = None if expected is None else self._sam(expected)
        if sam is not None:
            self.emit(self.model.type_symbol(expected), UseKind.IMPLEMENTATION, expr.location)
            self.emit_member_use(sam, UseKind.OVERRIDING, expr.location)
        inner = env.child()
        inner.returns = sam.type if sam is not None else Unknown
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

    def _sam(self, expected: str) -> Optional[MemberInfo]:
        """The single abstract method of ``expected`` when it is a model
        interface that declares exactly one, else None."""
        if expected not in self._sams:
            sam = None
            info = self.table.lookup_type(expected)
            if (
                info is not None
                and info.kind is SymbolKind.INTERFACE
                and self.model.type_symbol(expected) is not None
            ):
                abstract = [
                    m
                    for m in info.members
                    if m.kind is SymbolKind.METHOD and "abstract" in m.modifiers
                ]
                if len(abstract) == 1:
                    sam = abstract[0]
            self._sams[expected] = sam
        return self._sams[expected]
