"""Dense tensor type with reverse-mode autodiff, neural-net ops, and AdamW.

Everything downstream (backbones, policy, training) is expressed in terms of
this module.  Values are numpy arrays; gradients are accumulated on a tape
built during the forward pass and replayed in reverse topological order.
"""

from geoaware.numerics.tensor import (
    Tensor,
    add,
    broadcast_to,
    concat,
    matmul,
    mul,
    no_grad,
    reshape,
    sub,
    tensor_sum,
)
from geoaware.numerics.nnops import (
    conv1d_relu_pool,
    conv2d_relu_pool,
    cross_entropy,
    embedding_lookup,
    mlp2,
    mse_loss,
    transformer_block,
)
from geoaware.numerics.params import ParamStore
from geoaware.numerics.optim import AdamWState, adamw_step, init_adamw
from geoaware.numerics.gradcheck import grad_check

__all__ = [
    "Tensor",
    "add",
    "sub",
    "mul",
    "matmul",
    "reshape",
    "concat",
    "broadcast_to",
    "tensor_sum",
    "no_grad",
    "mlp2",
    "transformer_block",
    "conv1d_relu_pool",
    "conv2d_relu_pool",
    "embedding_lookup",
    "mse_loss",
    "cross_entropy",
    "ParamStore",
    "AdamWState",
    "init_adamw",
    "adamw_step",
    "grad_check",
]
