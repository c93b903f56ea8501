# the draws fixture, for every test module; it lives with the tests' other
# handles on the engine's internals
from engine import draws  # noqa: F401
