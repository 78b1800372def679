"""The one exception type of refused inputs."""


class InputError(ValueError):
    """An input that the documented contract refuses (CLI exit 2), as
    opposed to a programming error such as mixing two algebras."""
