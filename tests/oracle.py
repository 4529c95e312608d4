"""Brute-force use enumerator used as an independent oracle.

Collects every candidate (symbol, use, location) fact by exhaustively
walking the client AST, then greps the facts against the model's
(symbol x legal use) pairs. Shares the frontend (parser, symbol table,
typing) with the production code but none of the extraction logic.
"""

from __future__ import annotations

from ucov import nodes as n
from ucov.model import SymbolKind, UsageModel, UseKind
from ucov.symtab import PRIMITIVES, Scope, SymbolTable, build_symbol_table, erase
from ucov.typing_env import Env, as_type_name, bare_name, static_type_of

Fact = tuple[str, object, UseKind, n.Location]


def oracle_extract(units: list[n.SourceUnit], model: UsageModel) -> set[Fact]:
    table = build_symbol_table(units, base=model.table)
    facts: set[Fact] = set()
    collector = _Collector(table, model.table, facts)
    for unit in units:
        collector.unit(unit)
    # Grep phase: for every (API symbol, legal use) pair, keep the facts
    # that exhibit exactly that pair.
    result: set[Fact] = set()
    for sym, legal in model.entries.items():
        for use in legal:
            for fqn, sig, kind, loc in facts:
                if fqn == sym.fqn and sig == sym.signature and kind == use:
                    result.add((fqn, sig, kind, loc))
    return result


class _Collector:
    def __init__(self, table: SymbolTable, lib: SymbolTable, facts: set[Fact]):
        self.table = table
        self.lib = lib
        self.facts = facts

    def add(self, fqn, sig, use, loc):
        if loc is not None:
            self.facts.add((fqn, sig, use, loc))

    def in_lib(self, fqn: str) -> bool:
        return self.lib.lookup_type(fqn) is not None

    # -- declarations ----------------------------------------------------

    def unit(self, unit: n.SourceUnit) -> None:
        unit_scope = Scope.for_unit(self.table, unit)
        for decl in unit.types:
            prefix = unit.package_name + "." if unit.package_name else ""
            self.type_decl(decl, prefix + decl.simple_name, unit_scope)

    def type_decl(self, decl, fqn, outer, parent=None):
        scope = outer._replace(
            this_type=fqn,
            enclosing=outer.enclosing + (fqn,),
            type_params=outer.type_params | frozenset(decl.type_params),
        )
        for ref in decl.extends_refs:
            self.heritage(decl, ref, scope)
        for ref in decl.implements_refs:
            self.heritage(decl, ref, scope)
        info = self.table.lookup_type(fqn)
        if info is not None:
            self.declared_overrides(info)
            self.implicit_super_ctor(info)
        # A nested type's bodies see this one's fields and methods.
        env = Env(scope, parent)
        for member in decl.members:
            self.member(member, env)
        for inner in decl.nested:
            self.type_decl(inner, f"{fqn}.{inner.simple_name}", scope, env)

    def heritage(self, decl, ref, scope):
        for arg in ref.type_args:
            self.type_ref(arg, scope)
        resolved, known = scope.resolve_type(ref.name)
        if not known:
            return
        target = self.table.lookup_type(resolved)
        if target is None:
            return
        if target.kind is SymbolKind.INTERFACE:
            use = (
                UseKind.INTERFACE_EXTENSION
                if decl.kind is SymbolKind.INTERFACE
                else UseKind.IMPLEMENTATION
            )
        else:
            use = UseKind.INHERITANCE
        self.add(resolved, None, use, ref.location)

    def declared_overrides(self, info):
        for m in info.members:
            if m.kind is not SymbolKind.METHOD or "static" in m.modifiers:
                continue
            for tfqn in self.table.supertype_closure(info.fqn)[1:]:
                for sm in self.table.members_of(tfqn):
                    if (
                        sm.kind is SymbolKind.METHOD
                        and sm.signature == m.signature
                        and "static" not in sm.modifiers
                    ):
                        self.add(sm.fqn, sm.signature, UseKind.OVERRIDING, m.location)

    def implicit_super_ctor(self, info):
        for sup in info.supertypes:
            sup_info = self.table.lookup_type(sup)
            if sup_info is None or sup_info.kind is not SymbolKind.CLASS:
                continue
            for sc in sup_info.members:
                if sc.kind is SymbolKind.CONSTRUCTOR and not sc.param_types:
                    for m in info.members:
                        if m.kind is SymbolKind.CONSTRUCTOR and not m.synthesized:
                            self.add(
                                sc.fqn,
                                sc.signature,
                                UseKind.CONSTRUCTOR_INVOCATION,
                                m.location,
                            )
            break

    def member(self, member: n.MemberDecl, env: Env) -> None:
        for ref in self.member_refs(member):
            self.type_ref(ref, env.scope)
        if member.kind is SymbolKind.FIELD:
            if member.field_init is not None:
                expected = None
                if member.type_ref is not None:
                    expected = erase(member.type_ref, env.scope.resolve_type)
                self.expr(member.field_init, env.child(), expected)
            return
        if member.body is None:
            return
        inner = env.child()
        for p in member.params:
            inner.declare(p.name, self.declared(p.type_ref, env))
        ret = None
        if member.kind is SymbolKind.METHOD and member.type_ref is not None:
            ret = erase(member.type_ref, env.scope.resolve_type)
        self.block(member.body, inner, ret)

    @staticmethod
    def member_refs(member: n.MemberDecl):
        if member.type_ref is not None:
            yield member.type_ref
        for p in member.params:
            yield p.type_ref
        yield from member.throws_refs

    def type_ref(self, ref, scope):
        # A primitive name is the primitive, even where a type of that name
        # is visible, as typing and erasure take it.
        if ref.name and ref.name not in scope.type_params and ref.name not in PRIMITIVES:
            resolved, known = scope.resolve_type(ref.name)
            if known:
                self.add(resolved, None, UseKind.TYPE_REFERENCE, ref.location)
        for arg in ref.type_args:
            self.type_ref(arg, scope)

    def declared(self, ref, env):
        if not ref.name:
            return None
        erased = erase(ref, env.scope.resolve_type)
        base = erased.rstrip("[]")
        if base in ("int", "long", "short", "byte", "double", "float", "boolean", "char"):
            return erased
        # A name that resolves nowhere is no type, even where a
        # default-package type has its spelling.
        return erased if env.scope.resolve_type(ref.name)[1] else None

    # -- statements --------------------------------------------------------

    def block(self, block: n.Block, env: Env, ret) -> None:
        inner = env.child()
        for stmt in block.statements:
            self.stmt(stmt, inner, ret)

    def stmt(self, stmt, env, ret):
        if isinstance(stmt, n.Block):
            self.block(stmt, env, ret)
        elif isinstance(stmt, n.LocalDecl):
            self.type_ref(stmt.type_ref, env.scope)
            env.declare(stmt.name, self.declared(stmt.type_ref, env))
            if stmt.init is not None:
                self.expr(stmt.init, env, erase(stmt.type_ref, env.scope.resolve_type))
        elif isinstance(stmt, n.ExprStmt):
            self.expr(stmt.expr, env, None)
        elif isinstance(stmt, n.If):
            self.expr(stmt.cond, env, None)
            self.stmt(stmt.then, env.child(), ret)
            if stmt.orelse is not None:
                self.stmt(stmt.orelse, env.child(), ret)
        elif isinstance(stmt, n.While):
            self.expr(stmt.cond, env, None)
            self.stmt(stmt.body, env.child(), ret)
        elif isinstance(stmt, n.For):
            inner = env.child()
            if stmt.init is not None:
                self.stmt(stmt.init, inner, ret)
            if stmt.cond is not None:
                self.expr(stmt.cond, inner, None)
            if stmt.update is not None:
                self.expr(stmt.update, inner, None)
            self.stmt(stmt.body, inner.child(), ret)
        elif isinstance(stmt, n.Return):
            if stmt.expr is not None:
                self.expr(stmt.expr, env, ret)
        elif isinstance(stmt, n.Throw):
            self.expr(stmt.expr, env, None)
        elif isinstance(stmt, n.Try):
            self.block(stmt.body, env, ret)
            for catch in stmt.catches:
                self.type_ref(catch.param_type, env.scope)
                inner = env.child()
                inner.declare(catch.name, self.declared(catch.param_type, inner))
                self.block(catch.body, inner, ret)
            if stmt.finally_block is not None:
                self.block(stmt.finally_block, env, ret)

    # -- expressions ---------------------------------------------------------

    def expr(self, e, env, expected, writing=False):
        if isinstance(e, (n.Literal, n.This)):
            return
        if isinstance(e, n.Name):
            _, f = bare_name(e.identifier, env)
            if f is not None:
                use = UseKind.FIELD_WRITE if writing else UseKind.FIELD_READ
                self.add(f.fqn, None, use, e.location)
        elif isinstance(e, n.FieldAccess):
            rtype = static_type_of(e.receiver, env)
            if rtype is None:
                rtype = as_type_name(e.receiver, env)
            else:
                self.expr(e.receiver, env, None)
            if rtype is not None:
                f = self.table.find_field(rtype, e.name)
                if f is not None:
                    use = UseKind.FIELD_WRITE if writing else UseKind.FIELD_READ
                    self.add(f.fqn, None, use, e.location)
        elif isinstance(e, n.MethodCall):
            self.call(e, env)
        elif isinstance(e, n.New):
            self.new(e, env)
        elif isinstance(e, n.Assign):
            self.expr(e.target, env, None, writing=True)
            self.expr(e.value, env, static_type_of(e.target, env))
        elif isinstance(e, n.Binary):
            self.expr(e.left, env, None)
            self.expr(e.right, env, None)
        elif isinstance(e, n.Unary):
            # x++, ++x, x-- and --x read the variable and write it back.
            if e.op in ("++", "--", "post++", "post--"):
                self.expr(e.operand, env, None, writing=True)
            self.expr(e.operand, env, None)
        elif isinstance(e, n.Cast):
            self.type_ref(e.type_ref, env.scope)
            self.expr(e.expr, env, None)
        elif isinstance(e, n.Lambda):
            self.lam(e, env, expected)

    def call(self, e: n.MethodCall, env: Env):
        if e.receiver is None:
            # The innermost enclosing body with such a method.
            rtypes = env.bodies
        else:
            rtype = as_type_name(e.receiver, env)
            if rtype is None:
                rtype = static_type_of(e.receiver, env)
                self.expr(e.receiver, env, None)
            rtypes = (rtype,)
        member = None
        arg_types = [static_type_of(a, env) for a in e.args]
        for rtype in rtypes:
            if rtype is not None and member is None:
                member = self.table.resolve_method(rtype, e.name, arg_types).member
        if member is not None:
            if "static" in member.modifiers:
                self.add(member.fqn, member.signature, UseKind.STATIC_INVOCATION, e.location)
            else:
                self.add(member.fqn, member.signature, UseKind.METHOD_INVOCATION, e.location)
                for tfqn in self.table.supertype_closure(member.declaring)[1:]:
                    for sm in self.table.members_of(tfqn):
                        if (
                            sm.kind is SymbolKind.METHOD
                            and sm.signature == member.signature
                            and "static" not in sm.modifiers
                        ):
                            self.add(
                                sm.fqn, sm.signature, UseKind.METHOD_INVOCATION, e.location
                            )
        for i, arg in enumerate(e.args):
            expected = None
            if member is not None and i < len(member.param_types):
                expected = member.param_types[i]
            self.expr(arg, env, expected)

    def new(self, e: n.New, env: Env):
        for arg in e.type_ref.type_args:
            self.type_ref(arg, env.scope)
        resolved, known = env.scope.resolve_type(e.type_ref.name)
        info = self.table.lookup_type(resolved) if known else None
        arg_types = [static_type_of(a, env) for a in e.args]
        ctor = self.table.resolve_constructor(resolved, arg_types) if known else None
        if info is not None:
            if e.anon_body is None:
                self.add(resolved, None, UseKind.INSTANTIATION, e.type_ref.location)
                if ctor is not None and ctor.member is not None:
                    self.add(
                        ctor.member.fqn,
                        ctor.member.signature,
                        UseKind.CONSTRUCTOR_INVOCATION,
                        e.type_ref.location,
                    )
            elif info.kind is SymbolKind.INTERFACE:
                self.add(resolved, None, UseKind.IMPLEMENTATION, e.type_ref.location)
            else:
                self.add(resolved, None, UseKind.INHERITANCE, e.type_ref.location)
                if ctor is not None and ctor.member is not None:
                    self.add(
                        ctor.member.fqn,
                        ctor.member.signature,
                        UseKind.CONSTRUCTOR_INVOCATION,
                        e.type_ref.location,
                    )
        for i, arg in enumerate(e.args):
            expected = None
            if ctor is not None and ctor.member is not None:
                if i < len(ctor.member.param_types):
                    expected = ctor.member.param_types[i]
            self.expr(arg, env, expected)
        if e.anon_body is not None:
            # The body sees the enclosing locals; an unknown type's body
            # has no type and overrides nothing.
            inner = Env(env.scope._replace(this_type=resolved if known else None), env)
            for member in e.anon_body:
                if known and member.kind is SymbolKind.METHOD:
                    sig = "{}({})".format(
                        member.name,
                        ",".join(erase(p.type_ref, inner.scope.resolve_type)
                                 for p in member.params),
                    )
                    for tfqn in self.table.supertype_closure(resolved):
                        for m in self.table.members_of(tfqn):
                            if (
                                m.kind is SymbolKind.METHOD
                                and m.signature == sig
                                and "static" not in m.modifiers
                            ):
                                self.add(
                                    m.fqn, m.signature, UseKind.OVERRIDING, member.location
                                )
                self.member(member, inner)

    def lam(self, e: n.Lambda, env: Env, expected):
        sam = None
        if expected is not None:
            info = self.table.lookup_type(expected)
            if info is not None and info.kind is SymbolKind.INTERFACE:
                abstract = [
                    m
                    for m in info.members
                    if m.kind is SymbolKind.METHOD and "abstract" in m.modifiers
                ]
                if len(abstract) == 1:
                    sam = abstract[0]
                    self.add(expected, None, UseKind.IMPLEMENTATION, e.location)
                    self.add(sam.fqn, sam.signature, UseKind.OVERRIDING, e.location)
        inner = env.child()
        for i, p in enumerate(e.params):
            if p.type_ref.name:
                self.type_ref(p.type_ref, env.scope)
                inner.declare(p.name, self.declared(p.type_ref, inner))
            elif sam is not None and i < len(sam.param_types):
                inner.declare(p.name, sam.param_types[i])
            else:
                inner.declare(p.name, None)
        if isinstance(e.body, n.Block):
            self.block(e.body, inner, sam.type if sam else None)
        else:
            self.expr(e.body, inner, sam.type if sam else None)
