"""Canonical source rendering of parsed units.

Used to check parse-print-parse stability: re-parsing the rendering of a
SourceUnit yields an identical SourceUnit modulo locations.
"""

from __future__ import annotations

from ucov import nodes as n
from ucov.model import SymbolKind

_MODIFIER_ORDER = [
    "public", "protected", "private", "abstract", "static", "final", "sealed", "default"
]


def _mods(mods: set[str]) -> str:
    ordered = [m for m in _MODIFIER_ORDER if m in mods]
    return " ".join(ordered) + (" " if ordered else "")


def render_type_ref(ref: n.TypeRef) -> str:
    args = ""
    if ref.type_args:
        args = "<" + ", ".join(render_type_ref(a) for a in ref.type_args) + ">"
    return ref.name + args + "[]" * ref.array_dims


def render_expr(expr: n.Expr) -> str:
    if isinstance(expr, n.Literal):
        if expr.kind == "string":
            return f'"{expr.value}"'
        if expr.kind == "char":
            return f"'{expr.value}'"
        if expr.kind == "null":
            return "null"
        return str(expr.value)
    if isinstance(expr, n.Name):
        return expr.identifier
    if isinstance(expr, n.This):
        return "this"
    if isinstance(expr, n.FieldAccess):
        return f"{render_expr(expr.receiver)}.{expr.name}"
    if isinstance(expr, n.MethodCall):
        args = ", ".join(render_expr(a) for a in expr.args)
        if expr.receiver is None:
            return f"{expr.name}({args})"
        return f"{render_expr(expr.receiver)}.{expr.name}({args})"
    if isinstance(expr, n.New):
        args = ", ".join(render_expr(a) for a in expr.args)
        text = f"new {render_type_ref(expr.type_ref)}({args})"
        if expr.anon_body is not None:
            body = " ".join(_render_member(m, expr.type_ref.name.split(".")[-1])
                            for m in expr.anon_body)
            text += " { " + body + " }"
        return text
    if isinstance(expr, n.Assign):
        return f"{render_expr(expr.target)} = {render_expr(expr.value)}"
    if isinstance(expr, n.Binary):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, n.Unary):
        if expr.op.startswith("post"):
            return f"({render_expr(expr.operand)}{expr.op[4:]})"
        return f"({expr.op}{render_expr(expr.operand)})"
    if isinstance(expr, n.Cast):
        return f"(({render_type_ref(expr.type_ref)}) {render_expr(expr.expr)})"
    if isinstance(expr, n.Lambda):
        params = ", ".join(
            f"{render_type_ref(p.type_ref)} {p.name}" if p.type_ref.name else p.name
            for p in expr.params
        )
        if isinstance(expr.body, n.Block):
            return f"({params}) -> {_render_block(expr.body)}"
        return f"({params}) -> {render_expr(expr.body)}"
    raise TypeError(f"unknown expression node {expr!r}")


def _render_block(block: n.Block) -> str:
    return "{ " + " ".join(_render_stmt(s) for s in block.statements) + " }"


def _render_stmt(stmt: n.Stmt) -> str:
    if isinstance(stmt, n.Block):
        return _render_block(stmt)
    if isinstance(stmt, n.LocalDecl):
        init = f" = {render_expr(stmt.init)}" if stmt.init is not None else ""
        return f"{render_type_ref(stmt.type_ref)} {stmt.name}{init};"
    if isinstance(stmt, n.ExprStmt):
        return f"{render_expr(stmt.expr)};"
    if isinstance(stmt, n.If):
        text = f"if ({render_expr(stmt.cond)}) {_as_block(stmt.then)}"
        if stmt.orelse is not None:
            text += f" else {_as_block(stmt.orelse)}"
        return text
    if isinstance(stmt, n.While):
        return f"while ({render_expr(stmt.cond)}) {_as_block(stmt.body)}"
    if isinstance(stmt, n.For):
        init = _render_stmt(stmt.init) if stmt.init is not None else ";"
        cond = render_expr(stmt.cond) if stmt.cond is not None else ""
        update = render_expr(stmt.update) if stmt.update is not None else ""
        return f"for ({init} {cond}; {update}) {_as_block(stmt.body)}"
    if isinstance(stmt, n.Return):
        if stmt.expr is None:
            return "return;"
        return f"return {render_expr(stmt.expr)};"
    if isinstance(stmt, n.Throw):
        return f"throw {render_expr(stmt.expr)};"
    if isinstance(stmt, n.Try):
        text = f"try {_render_block(stmt.body)}"
        for c in stmt.catches:
            text += (
                f" catch ({render_type_ref(c.param_type)} {c.name}) "
                f"{_render_block(c.body)}"
            )
        if stmt.finally_block is not None:
            text += f" finally {_render_block(stmt.finally_block)}"
        return text
    raise TypeError(f"unknown statement node {stmt!r}")


def _as_block(stmt: n.Stmt) -> str:
    # Canonical form braces every nested statement, keeping rendering
    # unambiguous under re-parsing.
    if isinstance(stmt, n.Block):
        return _render_block(stmt)
    return "{ " + _render_stmt(stmt) + " }"


def _render_member(member: n.MemberDecl, enclosing_name: str) -> str:
    mods = _mods(member.modifiers)
    if member.kind is SymbolKind.FIELD:
        init = f" = {render_expr(member.field_init)}" if member.field_init else ""
        return f"{mods}{render_type_ref(member.type_ref)} {member.name}{init};"
    params = ", ".join(f"{render_type_ref(p.type_ref)} {p.name}" for p in member.params)
    throws = ""
    if member.throws_refs:
        throws = " throws " + ", ".join(render_type_ref(r) for r in member.throws_refs)
    if member.kind is SymbolKind.CONSTRUCTOR:
        head = f"{mods}{member.name}({params}){throws}"
    else:
        rtype = "void" if member.type_ref is None else render_type_ref(member.type_ref)
        head = f"{mods}{rtype} {member.name}({params}){throws}"
    if member.body is None:
        return head + ";"
    return f"{head} {_render_block(member.body)}"


def render_type_decl(decl: n.TypeDecl, indent: str = "") -> str:
    keyword = "class" if decl.kind is SymbolKind.CLASS else "interface"
    params = f"<{', '.join(decl.type_params)}>" if decl.type_params else ""
    clauses = ""
    for kw, refs in (
        ("extends", decl.extends_refs),
        ("implements", decl.implements_refs),
    ):
        if refs:
            clauses += f" {kw} " + ", ".join(render_type_ref(r) for r in refs)
    lines = [f"{indent}{_mods(decl.modifiers)}{keyword} {decl.simple_name}{params}{clauses} {{"]
    for member in decl.members:
        lines.append(indent + "    " + _render_member(member, decl.simple_name))
    for inner in decl.nested:
        lines.append(render_type_decl(inner, indent + "    "))
    lines.append(indent + "}")
    return "\n".join(lines)


def render_unit(unit: n.SourceUnit) -> str:
    lines: list[str] = []
    if unit.package_name:
        lines.append(f"package {unit.package_name};")
    for imp in unit.imports:
        suffix = ".*" if imp.on_demand else ""
        lines.append(f"import {imp.qname}{suffix};")
    for decl in unit.types:
        lines.append(render_type_decl(decl))
    return "\n".join(lines) + "\n"
