"""Text generation: decoding strategies and constrained decoding hooks."""

from repro.generation.decoding import (
    GenerationConfig,
    TokenConstraint,
    generate,
    generate_text,
)

__all__ = [
    "GenerationConfig",
    "TokenConstraint",
    "generate",
    "generate_text",
]
