"""Few-shot prompt construction: instructions + worked examples + query."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.prompting.template import PromptTemplate


@dataclass(frozen=True)
class _Shot:
    """One worked example: the filled input plus its expected output."""

    inputs: Dict[str, str]
    output: str


class FewShotPrompt:
    """Builds k-shot prompts in the standard in-context-learning layout::

        <instructions>

        <example input rendered from template> <answer_prefix> <output>
        ...k times...

        <query input rendered from template> <answer_prefix>

    With zero shots this degrades gracefully to instruction-only
    (zero-shot) prompting.
    """

    def __init__(
        self,
        template: PromptTemplate,
        instructions: str = "",
        answer_prefix: str = "Answer:",
    ) -> None:
        self.template = template
        self.instructions = instructions.strip()
        self.answer_prefix = answer_prefix
        self._shots: List[_Shot] = []

    def add_example(self, output: str, **inputs: str) -> "FewShotPrompt":
        """Append one worked example; returns self for chaining."""
        self.template.render(**inputs)  # validate eagerly
        self._shots.append(_Shot(inputs=dict(inputs), output=output))
        return self

    @property
    def num_shots(self) -> int:
        return len(self._shots)

    def build(self, max_shots: Optional[int] = None, **query_inputs: str) -> str:
        """Render the complete prompt for ``query_inputs``."""
        parts: List[str] = []
        if self.instructions:
            parts.append(self.instructions)
        shots = self._shots if max_shots is None else self._shots[:max_shots]
        for shot in shots:
            rendered = self.template.render(**shot.inputs)
            parts.append(f"{rendered}\n{self.answer_prefix} {shot.output}")
        rendered_query = self.template.render(**query_inputs)
        parts.append(f"{rendered_query}\n{self.answer_prefix}")
        return "\n\n".join(parts)
