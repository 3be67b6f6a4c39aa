"""ASCII visualization of attention weights (the §2.1 teaching aid).

The tutorial explains the Transformer through its attention mechanism;
this utility renders what a trained model actually attends to — the
classic token-by-token heatmap — entirely in text.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.errors import ModelError
from repro.models import BERTModel, GPTModel
from repro.tokenizers import Tokenizer

_SHADES = " .:-=+*#%@"


def attention_matrix(
    model: Union[GPTModel, BERTModel],
    tokenizer: Tokenizer,
    text: str,
) -> tuple[List[str], np.ndarray]:
    """Run ``text`` through the model; return (tokens, attention T x T).

    The weights are those of the last layer's first head.
    """
    encoding = tokenizer.encode(text)
    if not encoding.ids:
        raise ModelError("cannot visualize attention over empty input")
    ids = np.array([encoding.ids], dtype=np.int64)
    from repro.autograd import no_grad

    with no_grad():
        model.encode(ids)
    attention = model.stack.blocks[-1].attn.last_attention
    tokens = [tokenizer.vocab.token_of(i) for i in encoding.ids]
    return tokens, attention[0, 0]


def render_attention(
    model: Union[GPTModel, BERTModel],
    tokenizer: Tokenizer,
    text: str,
) -> str:
    """Render the last layer's first attention head as an ASCII grid.

    Rows are query positions, columns key positions; darker glyphs mean
    more attention mass. Causal models show an empty upper triangle —
    the masking §2.1 explains.
    """
    tokens, weights = attention_matrix(model, tokenizer, text)
    label_width = max(len(t) for t in tokens) + 1
    lines = [f"attention (layer -1, head 0) for: {text!r}", ""]
    header = " " * label_width + "".join(
        t[:2].ljust(2) for t in tokens
    )
    lines.append(header)
    for token, row in zip(tokens, weights):
        cells = []
        for weight in row:
            shade = _SHADES[min(int(weight * (len(_SHADES) - 1) * 2), len(_SHADES) - 1)]
            cells.append(shade + " ")
        lines.append(token.ljust(label_width) + "".join(cells))
    lines.append("")
    lines.append("scale: ' ' = 0  ...  '@' = high attention")
    return "\n".join(lines)
