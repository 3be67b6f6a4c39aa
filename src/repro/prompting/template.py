"""Prompt templates with named placeholders and validation."""

from __future__ import annotations

import re
from typing import List

from repro.errors import PromptError

_FIELD_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


class PromptTemplate:
    """A text template with ``{field}`` placeholders.

    Rendering validates that exactly the declared fields are supplied,
    catching prompt-construction bugs early instead of silently emitting
    prompts with literal ``{question}`` holes.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.fields: List[str] = list(dict.fromkeys(_FIELD_RE.findall(text)))

    def render(self, **values: str) -> str:
        """Substitute placeholder values; raise on missing/extra fields."""
        missing = [f for f in self.fields if f not in values]
        extra = [k for k in values if k not in self.fields]
        if missing:
            raise PromptError(f"missing template fields: {missing}")
        if extra:
            raise PromptError(f"unknown template fields: {extra}")
        out = self.text
        for name, value in values.items():
            out = out.replace("{" + name + "}", str(value))
        return out

    def partial(self, **values: str) -> "PromptTemplate":
        """Pre-fill a subset of fields, returning a new template."""
        unknown = [k for k in values if k not in self.fields]
        if unknown:
            raise PromptError(f"unknown template fields: {unknown}")
        out = self.text
        for name, value in values.items():
            out = out.replace("{" + name + "}", str(value))
        return PromptTemplate(out)

    def __repr__(self) -> str:
        return f"PromptTemplate(fields={self.fields})"
