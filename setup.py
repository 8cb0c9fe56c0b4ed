from setuptools import Extension, setup

# The compiled flow kernel is optional: if the C compiler is missing or
# fails, the package installs without it and sepkit falls back to the
# pure-Python kernel at import time. With Cython installed the C source
# is first regenerated from _flowcore.pyx when the .pyx is newer; without
# it the shipped _flowcore.c is built as it is.
try:
    from Cython.Build import cythonize
except ImportError:
    pass
else:
    cythonize(["src/sepkit/_flowcore.pyx"], compiler_directives={"language_level": "3"})

setup(
    ext_modules=[
        Extension(
            "sepkit._flowcore",
            ["src/sepkit/_flowcore.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
