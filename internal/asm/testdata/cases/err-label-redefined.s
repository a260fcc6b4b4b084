X:
X:
